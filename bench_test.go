// Benchmarks regenerating every table and figure of the paper's evaluation
// (§7), plus the ablations of DESIGN.md §5. Each benchmark prints its table
// on the first iteration, so
//
//	go test -bench=. -benchmem
//
// emits the full experiment report. Workloads default to the paper's
// down-sampled demonstration size (256×256×240); see cmd/isobench for a
// flag-controlled version of the same drivers.
package repro

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/meshio"
	"repro/internal/serve"
)

func benchCfg() harness.RMConfig { return harness.DefaultRM() }

// BenchmarkTable1IndexSize regenerates Table 1: compact vs standard interval
// tree sizes over the dataset stand-ins.
func BenchmarkTable1IndexSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table1(96, 7)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Table 1: indexing structure sizes ===")
			harness.PrintTable1(os.Stdout, rows)
		}
	}
}

func perfBench(b *testing.B, procs int, label string) {
	b.Helper()
	var total int
	for i := 0; i < b.N; i++ {
		rows, err := harness.PerfTable(context.Background(), benchCfg(), procs, harness.PerfOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n=== %s ===\n", label)
			harness.PrintPerfTable(os.Stdout, procs, rows)
		}
		total = 0
		var rate float64
		for _, r := range rows {
			total += r.Triangles
			rate += r.Rate
		}
		b.ReportMetric(rate/float64(len(rows)), "Mtri/s")
	}
	_ = total
}

// BenchmarkTable2SingleNode regenerates Table 2 (one node, isovalues
// 10..210).
func BenchmarkTable2SingleNode(b *testing.B) {
	perfBench(b, 1, "Table 2: single node performance")
}

// BenchmarkTable3TwoNodes regenerates Table 3.
func BenchmarkTable3TwoNodes(b *testing.B) {
	perfBench(b, 2, "Table 3: two-node performance")
}

// BenchmarkTable4FourNodes regenerates Table 4.
func BenchmarkTable4FourNodes(b *testing.B) {
	perfBench(b, 4, "Table 4: four-node performance")
}

// BenchmarkTable5EightNodes regenerates Table 5.
func BenchmarkTable5EightNodes(b *testing.B) {
	perfBench(b, 8, "Table 5: eight-node performance")
}

// BenchmarkTable6MetacellBalance regenerates Table 6: active-metacell
// distribution across four nodes.
func BenchmarkTable6MetacellBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.BalanceTable(context.Background(), benchCfg(), 4, "metacells")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Table 6: active metacell distribution (4 nodes) ===")
			harness.PrintBalanceTable(os.Stdout, "metacells", rows)
		}
		worst := 0.0
		for _, r := range rows {
			if r.MaxAvg > worst {
				worst = r.MaxAvg
			}
		}
		b.ReportMetric(worst, "worst-max/avg")
	}
}

// BenchmarkTable7TriangleBalance regenerates Table 7: triangle distribution
// across four nodes.
func BenchmarkTable7TriangleBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.BalanceTable(context.Background(), benchCfg(), 4, "triangles")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Table 7: triangle distribution (4 nodes) ===")
			harness.PrintBalanceTable(os.Stdout, "triangles", rows)
		}
	}
}

// BenchmarkTable8TimeVarying regenerates Table 8: time steps 180–195 at
// isovalue 70 on four nodes.
func BenchmarkTable8TimeVarying(b *testing.B) {
	cfg := benchCfg()
	// Table 8 preprocesses 16 separate time steps; use the half-size grid so
	// the bench stays minutes-scale (the shape is size-independent).
	cfg.NX, cfg.NY, cfg.NZ = cfg.NX/2, cfg.NY/2, cfg.NZ/2
	steps := make([]int, 0, 16)
	for s := 180; s <= 195; s++ {
		steps = append(steps, s)
	}
	for i := 0; i < b.N; i++ {
		rows, idx, err := harness.Table8(context.Background(), cfg, steps, 70, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Table 8: time-varying browsing (iso 70, 4 nodes) ===")
			harness.PrintTable8(os.Stdout, 70, 4, rows, idx)
		}
	}
}

// scaling memoizes the Figure 5/6 sweep so the two benchmarks don't run the
// full 4-configuration measurement twice.
var scaling struct {
	once sync.Once
	pts  []harness.ScalingPoint
	err  error
}

func scalingPoints() ([]harness.ScalingPoint, error) {
	scaling.once.Do(func() {
		scaling.pts, scaling.err = harness.ScalingSeries(context.Background(), benchCfg(), []int{1, 2, 4, 8}, harness.PerfOptions{})
	})
	return scaling.pts, scaling.err
}

// BenchmarkFigure5OverallTime regenerates Figure 5: overall time versus
// isovalue for 1–8 nodes.
func BenchmarkFigure5OverallTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := scalingPoints()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Figure 5: overall time vs isovalue ===")
			harness.PrintFigure5(os.Stdout, []int{1, 2, 4, 8}, pts)
		}
	}
}

// BenchmarkFigure6Speedup regenerates Figure 6: speedups versus isovalue.
func BenchmarkFigure6Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := scalingPoints()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Figure 6: speedup vs isovalue ===")
			harness.PrintFigure6(os.Stdout, []int{1, 2, 4, 8}, pts)
		}
		var s8 float64
		n := 0
		for _, p := range pts {
			if p.Procs == 8 {
				s8 += p.Speedup
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(s8/float64(n), "speedup-p8")
		}
	}
}

// BenchmarkFigure4Render regenerates Figure 4: the rendered isosurface at
// isovalue 190, written to figure4.ppm beside the test binary's working
// directory.
func BenchmarkFigure4Render(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure4(context.Background(), benchCfg(), 190, 4, 1024, 768, "figure4.ppm")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n=== Figure 4: isosurface render (iso 190) ===\n")
			fmt.Printf("triangles: %d, covered pixels: %d/%d, wall image: figure4.ppm (2×2 tiles composited)\n",
				res.Triangles, res.CoveredPixels, res.Wall.W*res.Wall.H)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationIndexStructures compares the three index structures.
func BenchmarkAblationIndexStructures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationIndexStructures(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Ablation: index structures ===")
			harness.PrintIndexAblation(os.Stdout, rows)
		}
	}
}

// BenchmarkAblationDistribution compares data-distribution schemes.
func BenchmarkAblationDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationDistribution(context.Background(), benchCfg(), 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Ablation: data distribution (4 nodes) ===")
			harness.PrintDistributionAblation(os.Stdout, 4, rows)
		}
	}
}

// BenchmarkAblationBulkRead compares brick bulk reads with per-metacell
// reads.
func BenchmarkAblationBulkRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationBulkRead(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Ablation: bulk brick reads vs scattered reads ===")
			harness.PrintBulkReadAblation(os.Stdout, rows)
		}
	}
}

// BenchmarkAblationMetacellSize sweeps the metacell span.
func BenchmarkAblationMetacellSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationMetacellSize(benchCfg(), 110, []int{5, 9, 17})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Ablation: metacell size ===")
			harness.PrintMetacellSizeAblation(os.Stdout, 110, rows)
		}
	}
}

// BenchmarkAblationHostDispatch compares host-dispatch execution with
// independent per-node queries.
func BenchmarkAblationHostDispatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationHostDispatch(context.Background(), benchCfg(), 110, []int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Ablation: host dispatch vs independent nodes ===")
			harness.PrintDispatchAblation(os.Stdout, 110, rows)
		}
	}
}

// BenchmarkAblationSchedule compares the two-phase and streaming extraction
// schedules across the isovalue sweep.
func BenchmarkAblationSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationSchedule(context.Background(), benchCfg(), 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Ablation: two-phase vs streaming extraction (4 nodes) ===")
			harness.PrintScheduleAblation(os.Stdout, 4, rows)
		}
	}
}

// --- Micro-benchmarks of the core operations ---

// BenchmarkQuerySingleIsovalue measures one complete single-node query +
// triangulation at the mid isovalue (default streaming schedule).
func BenchmarkQuerySingleIsovalue(b *testing.B) {
	eng, err := harness.Engine(benchCfg(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var tris int
	for i := 0; i < b.N; i++ {
		res, err := eng.Extract(context.Background(), 110, Options{})
		if err != nil {
			b.Fatal(err)
		}
		tris = res.Triangles
	}
	b.ReportMetric(float64(tris), "triangles")
}

// extractScheduleBench runs a single-node extraction at the mid isovalue
// under the given options — the head-to-head pair for the two schedules.
func extractScheduleBench(b *testing.B, opts Options) {
	b.Helper()
	eng, err := harness.Engine(benchCfg(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var peak int64
	for i := 0; i < b.N; i++ {
		res, err := eng.Extract(context.Background(), 110, opts)
		if err != nil {
			b.Fatal(err)
		}
		peak = res.MaxPeakBufferedBytes()
	}
	b.ReportMetric(float64(peak), "peak-buffered-bytes")
}

// BenchmarkExtractTwoPhase measures the legacy retrieve-then-triangulate
// schedule, whose staging memory grows with the isosurface.
func BenchmarkExtractTwoPhase(b *testing.B) {
	extractScheduleBench(b, Options{TwoPhase: true})
}

// BenchmarkExtractStreaming measures the bounded-memory streaming pipeline
// on the identical volume and isovalue.
func BenchmarkExtractStreaming(b *testing.B) {
	extractScheduleBench(b, Options{})
}

// BenchmarkAblationQueryStructures compares the four query acceleration
// structures (CIT, octree, ISSUE lattice, standard interval tree).
func BenchmarkAblationQueryStructures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationQueryStructures(benchCfg(), 110)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Ablation: query acceleration structures ===")
			harness.PrintQueryStructuresAblation(os.Stdout, 110, rows)
		}
	}
}

// BenchmarkServingTable regenerates the serving-layer experiment: Zipf
// traffic from concurrent clients through coalescing + mesh cache vs direct
// uncached extraction.
func BenchmarkServingTable(b *testing.B) {
	w := harness.ServingWorkload{ReqPerClient: 8}
	for i := 0; i < b.N; i++ {
		rows, err := harness.ServingTable(context.Background(), harness.Small(), 4, []int{8, 32}, w, serve.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Serving layer: throughput vs clients (4 nodes) ===")
			harness.PrintServingTable(os.Stdout, 4, w, rows)
		}
		b.ReportMetric(rows[len(rows)-1].Speedup, "speedup")
	}
}

// BenchmarkServeQueryHot measures the server's hot path: a cache-resident
// surface served with no backend work.
func BenchmarkServeQueryHot(b *testing.B) {
	eng, err := harness.Engine(harness.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.Config{})
	if _, err := srv.Query(context.Background(), 0, 110); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Query(context.Background(), 0, 110); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterQueryHot measures the distributed tier's hot path over real
// loopback sockets: Router.Query for a surface its home replica has cached
// and sealed — the replica writes the cached triangles' own bytes, the router
// checksums the frame once and hands back a view of it. With -benchmem the
// bytes per op should sit near one frame (the router's read buffer) and
// MB/s is frame bytes delivered.
func BenchmarkRouterQueryHot(b *testing.B) {
	eng, err := harness.Engine(benchCfg(), 1)
	if err != nil {
		b.Fatal(err)
	}
	tier, err := StartDistCluster(EngineBackend(eng), DistConfig{Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer tier.Close()
	ctx := context.Background()
	warm, err := tier.Router.Query(ctx, 0, 110)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(meshio.BinarySize(warm.Mesh)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := tier.Router.Query(ctx, 0, 110)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Route.Source != "cache" || resp.Mesh.Len() != warm.Mesh.Len() {
			b.Fatalf("request %d: source %q, %d triangles (warm-up had %d)", i, resp.Route.Source, resp.Mesh.Len(), warm.Mesh.Len())
		}
	}
}
