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

	// Every pipeline actor shows up: producer, each worker, and the merger,
	// per node.
	lanes := tr.Lanes()
	for node := 0; node < e.Procs; node++ {
		for _, want := range []string{
			fmt.Sprintf("n%d/prod", node),
			fmt.Sprintf("n%d/w0", node),
			fmt.Sprintf("n%d/w1", node),
			fmt.Sprintf("n%d/merge", node),
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

	// The merger lane is wait, expand, copy-out, in that order; an extraction
	// that keeps no mesh has nothing to expand or copy.
	for node := 0; node < e.Procs; node++ {
		var names []string
		for _, sp := range tr.LaneSpans(fmt.Sprintf("n%d/merge", node)) {
			names = append(names, sp.Name)
			if sp.Name != "wait" && (sp.Dur != 0) != keep {
				t.Errorf("node %d: merger span %q lasts %v with KeepMeshes=%v", node, sp.Name, sp.Dur, keep)
			}
		}
		if got := strings.Join(names, ","); got != "wait,expand,copy-out" {
			t.Errorf("node %d: merger lane is %q, want wait,expand,copy-out", node, got)
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

func TestTraceTwoPhaseProperty(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExtractTwoPhase(context.Background(), 150, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Options.Trace set but Result.Trace is nil (two-phase)")
	}
	for _, lane := range res.Trace.Lanes() {
		var end time.Duration
		for _, sp := range res.Trace.LaneSpans(lane) {
			if sp.Start < end {
				t.Errorf("lane %q: overlapping spans", lane)
			}
			end = sp.Start + sp.Dur
		}
		if end > res.Trace.Wall+laneEps {
			t.Errorf("lane %q ends at %v, after wall %v", lane, end, res.Trace.Wall)
		}
	}
}

func TestTraceDisabledRecordsNothing(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 2, ThreadsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, extract := range schedules(e) {
		res, err := extract(context.Background(), 150, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace != nil {
			t.Errorf("%s: tracing disabled but Result.Trace = %+v", name, res.Trace)
		}
		for i := range res.PerNode {
			if len(res.PerNode[i].spans) != 0 {
				t.Errorf("%s: node %d recorded %d spans with tracing disabled", name, i, len(res.PerNode[i].spans))
			}
		}
	}
}
