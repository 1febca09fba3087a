package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// laneEps absorbs the clock reads between a lane's last span ending and the
// extraction wall being stamped (each is a separate time.Since).
const laneEps = 2 * time.Millisecond

func TestTraceStreamingProperty(t *testing.T) {
	for _, keep := range []bool{false, true} {
		t.Run(fmt.Sprintf("KeepMeshes=%v", keep), func(t *testing.T) { traceStreamingProperty(t, keep) })
	}
}

func traceStreamingProperty(t *testing.T, keep bool) {
	e, err := Build(rmGrid(), Config{Procs: 2, ThreadsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Extract(context.Background(), 150, Options{Trace: true, KeepMeshes: keep})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("Options.Trace set but Result.Trace is nil")
	}
	if tr.Wall != res.Wall {
		t.Errorf("Trace.Wall = %v, want Result.Wall %v", tr.Wall, res.Wall)
	}

	// Every pipeline actor shows up, and nothing else: the producer and the
	// Threads+1 lanes, per node.
	lanes := tr.Lanes()
	if want := e.Procs * (1 + e.Threads + 1); len(lanes) != want {
		t.Errorf("trace has %d lanes %v, want %d", len(lanes), lanes, want)
	}
	for node := 0; node < e.Procs; node++ {
		for _, want := range []string{
			fmt.Sprintf("n%d/prod", node),
			fmt.Sprintf("n%d/w0", node),
			fmt.Sprintf("n%d/w1", node),
			fmt.Sprintf("n%d/w2", node),
		} {
			found := false
			for _, l := range lanes {
				if l == want {
					found = true
				}
			}
			if !found {
				t.Errorf("trace missing lane %q (have %v)", want, lanes)
			}
		}
	}

	for _, lane := range lanes {
		spans := tr.LaneSpans(lane)
		if len(spans) == 0 {
			t.Errorf("lane %q has no spans", lane)
			continue
		}
		sorted := sort.SliceIsSorted(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		if !sorted {
			t.Errorf("lane %q spans not sorted by start", lane)
		}
		var sum, end time.Duration
		for i, sp := range spans {
			if sp.Start < 0 || sp.Dur < 0 {
				t.Errorf("lane %q span %q: negative start %v or dur %v", lane, sp.Name, sp.Start, sp.Dur)
			}
			if i > 0 && sp.Start < end {
				t.Errorf("lane %q: span %q starts at %v before previous span ends at %v", lane, sp.Name, sp.Start, end)
			}
			end = sp.Start + sp.Dur
			sum += sp.Dur
		}
		if sum > tr.Wall+laneEps {
			t.Errorf("lane %q: stage durations sum to %v, exceeding extraction wall %v", lane, sum, tr.Wall)
		}
		if end > tr.Wall+laneEps {
			t.Errorf("lane %q ends at %v, after extraction wall %v", lane, end, tr.Wall)
		}
	}

	// The producer lane partitions its own busy/stall accounting exactly.
	for node := 0; node < e.Procs; node++ {
		lane := fmt.Sprintf("n%d/prod", node)
		var sum time.Duration
		for _, sp := range tr.LaneSpans(lane) {
			sum += sp.Dur
		}
		if got := res.PerNode[node].AMCWall + res.PerNode[node].ProducerStall; sum != got {
			t.Errorf("lane %q durations sum to %v, want AMCWall+ProducerStall = %v", lane, sum, got)
		}
	}

	// A lane is wait, march/weld, expand, in that order, and its spans are
	// what the node reports for it: the waits add up to ConsumerStall, the
	// slowest weld is TriWall, and an extraction that keeps no mesh has
	// nothing to expand.
	for node := 0; node < e.Procs; node++ {
		var stall, slowest, expand time.Duration
		for w := 0; w <= e.Threads; w++ {
			spans := tr.LaneSpans(fmt.Sprintf("n%d/w%d", node, w))
			var names []string
			for _, sp := range spans {
				names = append(names, sp.Name)
			}
			if got := strings.Join(names, ","); got != "wait,march/weld,expand" {
				t.Fatalf("node %d lane %d is %q, want wait,march/weld,expand", node, w, got)
			}
			stall += spans[0].Dur
			slowest = max(slowest, spans[1].Dur)
			expand += spans[2].Dur
		}
		n := &res.PerNode[node]
		if stall != n.ConsumerStall || slowest != n.TriWall {
			t.Errorf("node %d: lanes wait %v and weld at most %v, node reports ConsumerStall %v, TriWall %v",
				node, stall, slowest, n.ConsumerStall, n.TriWall)
		}
		if (expand != 0) != (keep && n.Triangles > 0) {
			t.Errorf("node %d: lanes spent %v expanding %d triangles with KeepMeshes=%v", node, expand, n.Triangles, keep)
		}
	}

	// The waterfall renders every lane.
	var sb strings.Builder
	tr.Waterfall(&sb)
	for _, lane := range lanes {
		if !strings.Contains(sb.String(), lane) {
			t.Errorf("waterfall missing lane %q:\n%s", lane, sb.String())
		}
	}
}

func TestTraceDisabledRecordsNothing(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 2, ThreadsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Extract(context.Background(), 150, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Errorf("tracing disabled but Result.Trace = %+v", res.Trace)
	}
	for i := range res.PerNode {
		if len(res.PerNode[i].spans) != 0 {
			t.Errorf("node %d recorded %d spans with tracing disabled", i, len(res.PerNode[i].spans))
		}
	}
}
