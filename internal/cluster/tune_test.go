package cluster

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/march"
	"repro/internal/metacell"
)

// TestWeldBatchZeroAllocSteadyState is the pipeline allocation gate: once a
// worker's scratch (Welder, Meta, IndexedMesh) has warmed up, processing a
// batch must not allocate. A regression here silently reintroduces per-batch
// garbage across every extraction.
func TestWeldBatchZeroAllocSteadyState(t *testing.T) {
	g := rmGrid()
	l, cells := metacell.Extract(g, metacell.DefaultSpan)
	recSize := l.RecordSize()
	nrec := len(cells)
	if nrec == 0 {
		t.Fatal("no metacells extracted")
	}
	buf := make([]byte, 0, nrec*recSize)
	for _, c := range cells {
		buf = append(buf, c.Record...)
	}

	var w march.Welder
	var m metacell.Meta
	im := &geom.IndexedMesh{}
	const iso = 110
	if _, err := weldBatch(l, buf, nrec, recSize, iso, &w, &m, im, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		im.Reset()
		if _, err := weldBatch(l, buf, nrec, recSize, iso, &w, &m, im, nil); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state weldBatch allocates %v per batch, want 0", allocs)
	}
}

// TestAutoTuneExtract checks the calibrated extraction: valid parameters
// within the host budget, results identical to an untuned run, probes bounded
// in records, and the calibration pass cached and reported after the first use.
func TestAutoTuneExtract(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const iso = 110

	ref, err := e.Extract(ctx, iso, Options{KeepMeshes: true})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := e.Extract(ctx, iso, Options{KeepMeshes: true, AutoTune: true})
	if err != nil {
		t.Fatal(err)
	}
	tp := tuned.Tuned
	if tp == nil {
		t.Fatal("AutoTune extraction reported no TunedParams")
	}
	if tp.Threads < 1 {
		t.Errorf("tuned Threads = %d, want ≥ 1", tp.Threads)
	}
	if max := maxInt(runtime.GOMAXPROCS(0)/e.Procs, e.Threads); tp.Threads > maxInt(max, 1) {
		t.Errorf("tuned Threads = %d exceeds per-node budget %d", tp.Threads, max)
	}
	if !slices.Contains(batchRecordCands, tp.BatchRecords) {
		t.Errorf("tuned BatchRecords = %d not in candidate grid %v", tp.BatchRecords, batchRecordCands)
	}
	if !slices.Contains(pipelineDepthCands, tp.PipelineDepth) {
		t.Errorf("tuned PipelineDepth = %d not in candidate grid %v", tp.PipelineDepth, pipelineDepthCands)
	}
	if tp.Probes <= 0 {
		t.Errorf("calibration ran %d probes, want > 0", tp.Probes)
	}

	// Tuning must not change the geometry.
	if tuned.Triangles != ref.Triangles || tuned.Active != ref.Active {
		t.Errorf("tuned extraction: %d triangles / %d active, untuned: %d / %d",
			tuned.Triangles, tuned.Active, ref.Triangles, ref.Active)
	}
	for n := range ref.PerNode {
		if !slices.Equal(tuned.PerNode[n].Mesh.Tris, ref.PerNode[n].Mesh.Tris) {
			t.Errorf("node %d: tuned mesh differs from untuned", n)
		}
	}

	// A probe is a fixed slice of one node's work: it delivers its record
	// bound and not one more, in full batches, whichever BatchRecords
	// candidate it scores (a bound in batches would let the 1024-record
	// candidate run the whole extraction).
	full := ref.PerNode[0].ActiveMetacells
	for _, br := range batchRecordCands {
		for _, bound := range []int{probeRecordCount, full - 1, 10, 1} {
			nr, err := e.extractNodeStreaming(ctx, 0, iso, Options{BatchRecords: br, probeRecords: bound}.applyDefaults())
			if err != nil {
				t.Fatal(err)
			}
			want := min(bound, full)
			if nr.ActiveMetacells != want || nr.Batches != (want+br-1)/br {
				t.Errorf("probe of %d records at BatchRecords %d: delivered %d in %d batches, want %d in %d",
					bound, br, nr.ActiveMetacells, nr.Batches, want, (want+br-1)/br)
			}
		}
	}

	// Second tuned extraction reuses the cached calibration.
	again, err := e.Extract(ctx, iso, Options{AutoTune: true})
	if err != nil {
		t.Fatal(err)
	}
	if *again.Tuned != *tp {
		t.Errorf("second AutoTune run recalibrated: %+v vs %+v", *again.Tuned, *tp)
	}
}

// TestOptionsThreadsOverride checks the per-extraction thread override leaves
// results identical on both schedules.
func TestOptionsThreadsOverride(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const iso = 110
	ref, err := e.Extract(ctx, iso, Options{KeepMeshes: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, extract := range schedules(e) {
		got, err := extract(ctx, iso, Options{KeepMeshes: true, Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.PerNode[0].Mesh.Tris, ref.PerNode[0].Mesh.Tris) {
			t.Errorf("Threads=3 %s: mesh differs from single-thread reference", name)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
