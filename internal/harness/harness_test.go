package harness

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/composite"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/serve"
)

// All harness tests use the Small configuration so the full suite stays
// fast; the benches exercise the paper-scale default.

func TestSweepMatchesPaper(t *testing.T) {
	isos := Sweep()
	if len(isos) != 11 || isos[0] != 10 || isos[10] != 210 {
		t.Fatalf("sweep = %v, want 10..210 step 20", isos)
	}
}

func TestVolumeCached(t *testing.T) {
	cfg := Small()
	a, b := Volume(cfg), Volume(cfg)
	if a != b {
		t.Error("volume not cached")
	}
	cfg2 := cfg
	cfg2.Seed++
	if Volume(cfg2) == a {
		t.Error("cache ignores seed")
	}
}

func TestEngineCached(t *testing.T) {
	cfg := Small()
	a, err := Engine(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Engine(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("engine not cached")
	}
	c, err := Engine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("cache ignores procs")
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(24, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.CITBytes <= 0 || r.StdBytes <= 0 {
			t.Errorf("%s: zero sizes", r.Name)
		}
		// The headline property: the compact structure is smaller, usually
		// by a large factor.
		if r.StdBytes <= r.CITBytes {
			t.Errorf("%s: standard tree (%d) not larger than compact (%d)", r.Name, r.StdBytes, r.CITBytes)
		}
	}
	var buf bytes.Buffer
	WriteTable(&buf, rows, "")
	if !strings.Contains(buf.String(), "Bunny") {
		t.Error("printed table missing dataset names")
	}
}

func TestPerfTableSingleNode(t *testing.T) {
	rows, err := PerfTable(context.Background(), Small(), 1, PerfOptions{FrameW: 64, FrameH: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Sweep()) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Triangles <= 0 || r.Active <= 0 {
			t.Errorf("iso %v: empty extraction", r.Iso)
		}
		if r.Overall <= 0 || r.Rate <= 0 {
			t.Errorf("iso %v: missing timings", r.Iso)
		}
		if r.AMCModel <= 0 {
			t.Errorf("iso %v: no modeled I/O time", r.Iso)
		}
	}
	var buf bytes.Buffer
	WriteTable(&buf, rows, "[p=1]")
	if !strings.Contains(buf.String(), "Mtri/s") {
		t.Error("printed perf table malformed")
	}
}

func TestPerfTableSkipRender(t *testing.T) {
	rows, err := PerfTable(context.Background(), Small(), 2, PerfOptions{SkipRender: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RendWall != 0 {
			t.Errorf("iso %v: render time with SkipRender", r.Iso)
		}
	}
}

func TestIOTimeLinearInOutput(t *testing.T) {
	// The paper's Table 2 observation: AMC retrieval time is linear in the
	// amount of active data. Verify modeled I/O time correlates with active
	// metacells across the sweep (ratio of time-per-metacell within 2× of
	// the mean).
	rows, err := PerfTable(context.Background(), Small(), 1, PerfOptions{SkipRender: true})
	if err != nil {
		t.Fatal(err)
	}
	var perMC []float64
	for _, r := range rows {
		if r.Active > 0 {
			perMC = append(perMC, r.AMCModel.Seconds()/float64(r.Active))
		}
	}
	mean := 0.0
	for _, v := range perMC {
		mean += v
	}
	mean /= float64(len(perMC))
	for i, v := range perMC {
		if v < mean/2 || v > mean*2 {
			t.Errorf("row %d: modeled I/O %.3g s/metacell, mean %.3g — not linear", i, v, mean)
		}
	}
}

func TestBalanceTables(t *testing.T) {
	for _, metric := range []string{"metacells", "triangles"} {
		rows, err := BalanceTable(context.Background(), Small(), 4, metric)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if len(r.PerNode) != 4 {
				t.Fatalf("%s iso %v: %d nodes", metric, r.Iso, len(r.PerNode))
			}
			sum := 0
			for _, c := range r.PerNode {
				sum += c
			}
			if sum != r.Total {
				t.Errorf("%s iso %v: per-node does not sum to total", metric, r.Iso)
			}
			// Paper's claim: good balance irrespective of isovalue.
			if r.Total > 1000 && r.MaxAvg > 1.2 {
				t.Errorf("%s iso %v: max/avg = %.3f", metric, r.Iso, r.MaxAvg)
			}
		}
		var buf bytes.Buffer
		WriteTable(&buf, rows, "["+metric+"]")
		if !strings.Contains(buf.String(), "node 3") {
			t.Error("printed balance table malformed")
		}
	}
	if _, err := BalanceTable(context.Background(), Small(), 2, "nonsense"); err == nil {
		t.Error("unknown metric should fail")
	}
}

func TestTable8(t *testing.T) {
	cfg := Small()
	steps := []int{180, 185, 190, 195}
	rows, idx, err := Table8(context.Background(), cfg, steps, 70, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(steps) {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.Step != steps[i] {
			t.Errorf("row %d step %d", i, r.Step)
		}
		if r.Triangles <= 0 || r.Time <= 0 {
			t.Errorf("step %d: empty", r.Step)
		}
	}
	if idx.NumSteps() != len(steps) {
		t.Errorf("index steps = %d", idx.NumSteps())
	}
	// Paper §5.2: the time-varying index must stay small (MBs for hundreds
	// of steps; here a few steps of one-byte data → well under 1 MB).
	if idx.IndexSizeBytes() > 1<<20 {
		t.Errorf("time-varying index = %d bytes", idx.IndexSizeBytes())
	}
	var buf bytes.Buffer
	WriteTable(&buf, rows, "")
	if !strings.Contains(buf.String(), "time step") {
		t.Error("printed table 8 malformed")
	}
}

// TestScalingSeries holds Figures 5/6 to what is deterministic about them:
// the modeled disk time and the block, seek and triangle counts behind it.
// The paper's speedup itself adds measured triangulation wall time, which on
// a host with fewer cores than nodes is time-sliced, not parallel (1.2× at
// p=4 on two cores) — that floor is checked only under SCALING_WALL_GATE=1,
// which CI sets (its runners have four cores).
func TestScalingSeries(t *testing.T) {
	ctx := context.Background()
	procs := []int{1, 2, 4}
	pts, err := ScalingSeries(ctx, Small(), procs, PerfOptions{SkipRender: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(procs)*len(Sweep()) {
		t.Fatalf("%d points", len(pts))
	}
	wallGate := os.Getenv("SCALING_WALL_GATE") != ""
	for _, p := range pts {
		if p.Overall <= 0 || p.Speedup <= 0 {
			t.Errorf("iso %v p=%d: overall %v, speedup %.2f", p.Iso, p.Procs, p.Overall, p.Speedup)
		}
		if p.Procs == 1 && p.Speedup != 1 {
			t.Errorf("iso %v p=1 speedup = %.2f, want 1", p.Iso, p.Speedup)
		}
		if wallGate && p.Procs == 4 && p.Speedup < 1.3 {
			t.Errorf("iso %v p=4 speedup = %.2f, want > 1.3", p.Iso, p.Speedup)
		}
	}

	// The modeled part of the figure: striping hands every node its share of
	// the blocks (and of the triangles) at an unchanged handful of seeks, so
	// the slowest node's modeled disk time shrinks with the node count.
	type modeled struct {
		io     time.Duration
		blocks int64
	}
	serial := map[float32]modeled{} // p=1
	prev := map[float32]modeled{}   // the next smaller node count
	for _, p := range procs {
		eng, err := Engine(Small(), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, iso := range Sweep() {
			res, err := eng.Extract(ctx, iso, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var m modeled
			var maxSeeks int64
			maxTris := 0
			for _, n := range res.PerNode {
				m.io = max(m.io, n.IOModelTime)
				m.blocks = max(m.blocks, n.IOStats.BlocksRead)
				maxSeeks = max(maxSeeks, n.IOStats.Seeks)
				maxTris = max(maxTris, n.Triangles)
			}
			if p == 1 {
				serial[iso] = m
			} else if m.io >= prev[iso].io {
				t.Errorf("iso %v p=%d: modeled I/O %v, not below %v on fewer nodes", iso, p, m.io, prev[iso].io)
			}
			prev[iso] = m
			// At the Small test scale the per-node seek cost caps the modeled
			// speedup well below the paper-scale benches (1.31–1.78 at p=4);
			// require a clear parallel win.
			if sp := float64(serial[iso].io) / float64(m.io); p == 4 && sp < 1.25 {
				t.Errorf("iso %v p=4 modeled I/O speedup = %.2f, want ≥ 1.25", iso, sp)
			}
			if limit := serial[iso].blocks/int64(p) + 2; m.blocks > limit {
				t.Errorf("iso %v p=%d: busiest node read %d blocks, want ≤ %d (1/%d of the serial %d)", iso, p, m.blocks, limit, p, serial[iso].blocks)
			}
			if maxSeeks > 2 {
				t.Errorf("iso %v p=%d: busiest node seeks %d times, want ≤ 2", iso, p, maxSeeks)
			}
			if bal := float64(maxTris*p) / float64(res.Triangles); bal > 1.10 {
				t.Errorf("iso %v p=%d: busiest node holds %.3f× its share of the triangles", iso, p, bal)
			}
		}
	}

	var buf bytes.Buffer
	writeScaling(&buf, procs, pts, "overall time", func(p ScalingPoint) string { return fmtDur(p.Overall) })
	writeScaling(&buf, procs, pts, "speedup vs p=1", func(p ScalingPoint) string { return fmt.Sprintf("%.2f", p.Speedup) })
	out := buf.String()
	if !strings.Contains(out, "overall time") || !strings.Contains(out, "speedup") {
		t.Error("printed figures malformed")
	}
}

func TestFigure4(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fig4.ppm")
	res, err := Figure4(context.Background(), Small(), 190, 2, 128, 128, out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles <= 0 {
		t.Error("no triangles rendered")
	}
	if res.CoveredPixels <= 0 {
		t.Error("image is empty")
	}
	if len(res.Tiles) != 4 {
		t.Errorf("%d tiles, want 4 (2×2 wall)", len(res.Tiles))
	}
	if res.Wall.W != 128 || res.Wall.H != 128 {
		t.Errorf("wall is %d×%d", res.Wall.W, res.Wall.H)
	}
}

func TestAblationIndexStructures(t *testing.T) {
	rows, err := AblationIndexStructures(Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].SizeBytes >= rows[1].SizeBytes {
		t.Errorf("CIT (%d) not smaller than standard tree (%d)", rows[0].SizeBytes, rows[1].SizeBytes)
	}
	var buf bytes.Buffer
	WriteTable(&buf, rows, "")
	if !strings.Contains(buf.String(), "compact") {
		t.Error("printed ablation malformed")
	}
}

func TestAblationDistribution(t *testing.T) {
	rows, err := AblationDistribution(context.Background(), Small(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	stripe, rangePart := rows[0], rows[1]
	if stripe.WorstMaxAvg > 1.25 {
		t.Errorf("striping worst imbalance = %.3f", stripe.WorstMaxAvg)
	}
	if rangePart.WorstMaxAvg < stripe.WorstMaxAvg {
		t.Errorf("range partition (%.3f) not worse than striping (%.3f)",
			rangePart.WorstMaxAvg, stripe.WorstMaxAvg)
	}
	var buf bytes.Buffer
	WriteTable(&buf, rows, "")
	if !strings.Contains(buf.String(), "striping") {
		t.Error("printed ablation malformed")
	}
}

func TestAblationBulkRead(t *testing.T) {
	rows, err := AblationBulkRead(Small())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Active == 0 {
			continue
		}
		if r.BBIOBlocks < r.CITBlocks {
			t.Errorf("iso %v: BBIO blocks (%d) below CIT (%d)", r.Iso, r.BBIOBlocks, r.CITBlocks)
		}
	}
	var buf bytes.Buffer
	WriteTable(&buf, rows, "")
	if !strings.Contains(buf.String(), "CIT blocks") {
		t.Error("printed ablation malformed")
	}
}

func TestAblationMetacellSize(t *testing.T) {
	rows, err := AblationMetacellSize(Small(), 110, []int{5, 9, 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Smaller metacells → more metacells, larger index; larger metacells →
	// fewer, coarser.
	if rows[0].Metacells <= rows[2].Metacells {
		t.Errorf("span 5 metacells (%d) not more than span 17 (%d)", rows[0].Metacells, rows[2].Metacells)
	}
	// Triangle counts must agree across spans (same surface!).
	if rows[0].Triangles != rows[1].Triangles || rows[1].Triangles != rows[2].Triangles {
		t.Errorf("triangle counts differ across spans: %d / %d / %d",
			rows[0].Triangles, rows[1].Triangles, rows[2].Triangles)
	}
	var buf bytes.Buffer
	WriteTable(&buf, rows, "")
	if !strings.Contains(buf.String(), "span") {
		t.Error("printed ablation malformed")
	}
}

func TestAblationHostDispatch(t *testing.T) {
	rows, err := AblationHostDispatch(context.Background(), Small(), 110, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.HostBound <= 0 || r.Independent <= 0 {
			t.Errorf("workers %d: missing times", r.Workers)
		}
	}
	var buf bytes.Buffer
	WriteTable(&buf, rows, "")
	if !strings.Contains(buf.String(), "host-dispatch") {
		t.Error("printed ablation malformed")
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := map[int64]string{
		500:     "500 B",
		2048:    "2.00 KB",
		5 << 20: "5.00 MB",
		3 << 30: "3.00 GB",
	}
	for n, want := range cases {
		if got := obs.FormatBytes(n); got != want {
			t.Errorf("obs.FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestAblationQueryStructures(t *testing.T) {
	rows, err := AblationQueryStructures(Small(), 110)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// All structures must agree on the active set size.
	for _, r := range rows[1:] {
		if r.Active != rows[0].Active {
			t.Errorf("%s reports %d active, CIT %d", r.Structure, r.Active, rows[0].Active)
		}
	}
	// The CIT index must be the smallest.
	for _, r := range rows[1:] {
		if r.SizeBytes < rows[0].SizeBytes {
			t.Errorf("%s (%d B) smaller than CIT (%d B)", r.Structure, r.SizeBytes, rows[0].SizeBytes)
		}
	}
	var buf bytes.Buffer
	WriteTable(&buf, rows, "")
	if !strings.Contains(buf.String(), "octree") {
		t.Error("printed ablation malformed")
	}
}

func TestCompositeTrafficOrdersOfMagnitudeBelowTriangles(t *testing.T) {
	// Paper §5.1: "the last step involves the movement of data that is
	// orders of magnitude smaller than the total size of the triangles".
	// The claim is about large outputs, so test at the default experiment
	// scale (composite traffic is constant while triangle data grows with
	// the surface).
	if testing.Short() {
		t.Skip("default-scale workload")
	}
	eng, err := Engine(DefaultRM(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Extract(context.Background(), 110, cluster.Options{KeepMeshes: true})
	if err != nil {
		t.Fatal(err)
	}
	meshes, err := res.Meshes()
	if err != nil {
		t.Fatal(err)
	}
	fbs, _ := render.DrawNodes(meshes, render.FitNodes(meshes, 512, 512))
	_, st, err := composite.SortLast(fbs, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	triangleBytes := int64(res.Triangles) * 36 // 3 vertices × 3 floats
	if st.BytesMoved*5 > triangleBytes {
		t.Errorf("composite traffic %d B not well below triangle data %d B",
			st.BytesMoved, triangleBytes)
	}
}

func TestServingTable(t *testing.T) {
	// Enough requests per client that the Zipf head's cache hits dominate
	// the cold extractions: the speedup assertion below must hold on margin,
	// not scheduling luck, now that direct extraction itself is fast.
	w := ServingWorkload{ReqPerClient: 16, Levels: 8, Seed: 1}
	rows, err := ServingTable(context.Background(), Small(), 2, []int{1, 4}, w, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Requests != r.Clients*16 {
			t.Errorf("%d clients: %d requests", r.Clients, r.Requests)
		}
		if r.ServedQPS <= 0 || r.DirectQPS <= 0 {
			t.Errorf("%d clients: missing throughput", r.Clients)
		}
		if r.Extractions <= 0 {
			t.Errorf("%d clients: server reported no extractions", r.Clients)
		}
		if got := r.CacheHits + r.Coalesced + r.Extractions; got < int64(r.Requests) {
			t.Errorf("%d clients: hits+coalesced+extractions = %d < %d requests", r.Clients, got, r.Requests)
		}
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("%d clients: bad percentiles p50=%v p99=%v", r.Clients, r.P50, r.P99)
		}
	}
	// The Zipf head repeats isovalues, so the server must beat uncached
	// direct extraction once clients pile up.
	if rows[1].Speedup <= 1 {
		t.Errorf("4 clients: served %.1f q/s not faster than direct %.1f q/s",
			rows[1].ServedQPS, rows[1].DirectQPS)
	}
	var buf bytes.Buffer
	WriteTable(&buf, rows, "")
	if !strings.Contains(buf.String(), "hit rate") {
		t.Error("printed serving table malformed")
	}
}

func TestServingTableReportsTriangleRate(t *testing.T) {
	w := ServingWorkload{ReqPerClient: 4, Levels: 8, Seed: 1}
	rows, err := ServingTable(context.Background(), Small(), 2, []int{2}, w, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.ServedMtriPerSec <= 0 || r.DirectMtriPerSec <= 0 {
		t.Errorf("missing triangle throughput: served %.2f, direct %.2f Mtri/s",
			r.ServedMtriPerSec, r.DirectMtriPerSec)
	}
	var buf bytes.Buffer
	WriteTable(&buf, rows, "")
	if !strings.Contains(buf.String(), "Mtri/s") {
		t.Error("printed serving table lacks Mtri/s columns")
	}
}
