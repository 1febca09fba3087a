package core

import (
	"sync"
	"testing"

	"repro/internal/blockio"
	"repro/internal/metacell"
	"repro/internal/volume"
)

func benchSetup(b *testing.B) (metacell.Layout, []metacell.Cell, *Tree, blockio.Device) {
	b.Helper()
	g := volume.RichtmyerMeshkov(65, 65, 60, 250, 1)
	l, cells := metacell.Extract(g, 9)
	w := blockio.NewWriter()
	tree, err := Plan(cells).Materialize(l, cells, w)
	if err != nil {
		b.Fatal(err)
	}
	return l, cells, tree, w.Store()
}

// benchVolumeCells are the metacells of the repository benchmark's time step
// (bench/: 256×256×240 RM, step 250, seed 42), extracted once per process.
var benchVolumeCells = sync.OnceValues(func() (metacell.Layout, []metacell.Cell) {
	return metacell.Extract(volume.RichtmyerMeshkov(256, 256, 240, 250, 42), metacell.DefaultSpan)
})

// BenchmarkPlan measures compact-interval-tree construction on the benchmark
// volume's metacells (core.plan_s's twin); BenchmarkPlanOracle is the
// comparison-sorting plan it replaced, on the same cells.
func BenchmarkPlan(b *testing.B) { benchPlan(b, Plan) }

func BenchmarkPlanOracle(b *testing.B) { benchPlan(b, planOracle) }

func benchPlan(b *testing.B, plan func([]metacell.Cell) *BuildPlan) {
	_, cells := benchVolumeCells()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan(cells)
	}
	b.ReportMetric(float64(len(cells)), "metacells")
}

// BenchmarkQueryMid measures a mid-isovalue query (record streaming only).
func BenchmarkQueryMid(b *testing.B) {
	_, _, tree, dev := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Query(dev, 128, func([]byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryCase1 measures the bulk-read path (isovalue at the top of
// the range).
func BenchmarkQueryCase1(b *testing.B) {
	_, _, tree, dev := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Query(dev, 244, func([]byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterializeStriped measures 8-way striped materialization.
func BenchmarkMaterializeStriped(b *testing.B) {
	g := volume.RichtmyerMeshkov(65, 65, 60, 250, 1)
	l, cells := metacell.Extract(g, 9)
	plan := Plan(cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := make([]RecordWriter, 8)
		for j := range ws {
			ws[j] = blockio.NewWriter()
		}
		if _, err := plan.MaterializeStriped(l, cells, ws); err != nil {
			b.Fatal(err)
		}
	}
}
