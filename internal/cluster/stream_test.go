package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/geom"
	"repro/internal/march"
	"repro/internal/meshio"
	"repro/internal/metacell"
	"repro/internal/obs"
	"repro/internal/volume"
)

// sizing is a pipeline shape the public API cannot ask for: the in-package
// tests apply one to an engine of their own to run 1-record batches, odd
// depths and thread counts other than the one the engine was built with.
type sizing struct{ threads, depth, batch int }

func (s sizing) applyTo(e *Engine) {
	e.Threads, e.pipelineDepth, e.batchRecords = s.threads, s.depth, s.batch
}

// twoPhase is the paper's own schedule, the reference Extract is held to:
// per node, retrieve every active metacell record (phase 1), then weld them
// in record order and expand the welded mesh (phase 2). It runs serially,
// which gives the same bytes as contiguous per-thread ranges concatenated in
// thread order, and fills the counts and meshes the tests compare.
func twoPhase(t testing.TB, e *Engine, iso float32) *Result {
	t.Helper()
	res := &Result{Iso: iso, PerNode: make([]NodeResult, e.Procs)}
	recSize := e.Layout.RecordSize()
	for node := range res.PerNode {
		var records []byte
		st, err := e.trees[node].Query(e.devs[node], iso, func(rec []byte) error {
			records = append(records, rec...)
			return nil
		})
		if err != nil {
			t.Fatalf("two-phase node %d query: %v", node, err)
		}
		nr := &res.PerNode[node]
		nr.Node, nr.ActiveMetacells = node, st.ActiveMetacells
		var w march.Welder
		var im geom.Mesh
		for off := 0; off < len(records); off += recSize {
			cells, err := w.Record(e.Layout, records[off:off+recSize], iso, &im)
			if err != nil {
				t.Fatalf("two-phase node %d weld: %v", node, err)
			}
			nr.ActiveCells += cells
		}
		nr.Mesh = &im
		nr.Triangles = nr.Mesh.Len()
		res.Active += nr.ActiveMetacells
		res.Triangles += nr.Triangles
	}
	return res
}

// TestStreamingMatchesTwoPhaseProperty is the schedule-equivalence property
// test: across random isovalues, node counts, thread counts and pipeline
// shapes, the streaming pipeline must report exactly the two-phase
// schedule's ActiveMetacells, ActiveCells and Triangles, and (with
// KeepMeshes) produce the same per-node meshes, array for array and soup for
// soup. Meshes are poisoned (geom.PoisonMeshes), so a vertex or an index no
// lane copied shows as NaN bits or an index past every vertex, not as what
// the memory held.
func TestStreamingMatchesTwoPhaseProperty(t *testing.T) {
	defer geom.PoisonMeshes(geom.PoisonMeshes(true))
	g := rmGrid()
	rnd := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 8; trial++ {
		procs := 1 + rnd.Intn(3)
		threads := 1 + rnd.Intn(3)
		iso := float32(rnd.Intn(256))
		shape := sizing{threads: threads, batch: 1 + rnd.Intn(64), depth: 1 + rnd.Intn(5)}
		e, err := Build(g, Config{Procs: procs, ThreadsPerNode: threads})
		if err != nil {
			t.Fatal(err)
		}
		shape.applyTo(e)
		two := twoPhase(t, e, iso)
		str, err := e.Extract(context.Background(), iso, Options{KeepMeshes: true})
		if err != nil {
			t.Fatal(err)
		}
		if str.Active != two.Active || str.Triangles != two.Triangles {
			t.Errorf("trial %d (iso=%v p=%d t=%d %+v): streaming %d/%d, two-phase %d/%d (active/triangles)",
				trial, iso, procs, threads, shape, str.Active, str.Triangles, two.Active, two.Triangles)
			continue
		}
		for i := range str.PerNode {
			s, w := &str.PerNode[i], &two.PerNode[i]
			if s.ActiveMetacells != w.ActiveMetacells || s.ActiveCells != w.ActiveCells || s.Triangles != w.Triangles {
				t.Errorf("trial %d node %d: counts diverge: %d/%d/%d vs %d/%d/%d",
					trial, i, s.ActiveMetacells, s.ActiveCells, s.Triangles,
					w.ActiveMetacells, w.ActiveCells, w.Triangles)
			}
			if !sameSurface(s.Mesh, w.Mesh) {
				t.Errorf("trial %d node %d (iso=%v p=%d t=%d %+v): meshes not byte-identical",
					trial, i, iso, procs, threads, shape)
			}
		}
	}
}

// TestStreamingPeakBounded checks the pipeline's memory guarantee: peak
// buffered bytes never exceed depth × batch records × recordSize,
// even when the active set is much larger.
func TestStreamingPeakBounded(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	shape := sizing{threads: 1, batch: 8, depth: 2}
	shape.applyTo(e)
	res, err := e.Extract(context.Background(), 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recSize := e.Layout.RecordSize()
	bound := int64(shape.depth * shape.batch * recSize)
	n := &res.PerNode[0]
	if n.PeakBufferedBytes <= 0 || n.PeakBufferedBytes > bound {
		t.Errorf("peak buffered %d bytes outside (0, %d]", n.PeakBufferedBytes, bound)
	}
	staged := int64(n.ActiveMetacells * recSize)
	if staged <= bound {
		t.Fatalf("workload too small to exercise the bound: %d staged vs bound %d", staged, bound)
	}
	if n.Batches <= 1 {
		t.Errorf("expected multiple batches, got %d", n.Batches)
	}
	if n.PipelineWall <= 0 {
		t.Error("pipeline wall not recorded")
	}
}

// TestStreamingFaultAbortsWithoutLeaks injects a mid-stream read failure and
// checks the pipeline shuts down cleanly: the injected error surfaces from
// Extract and no producer or worker goroutine outlives the call. Run under
// -race in CI.
func TestStreamingFaultAbortsWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	e, err := Build(rmGrid(), Config{
		Procs:          2,
		ThreadsPerNode: 2,
		WrapDevice: func(node int, dev blockio.Device) blockio.Device {
			// Fail partway through node 1's retrieval so batches are already
			// in flight when the producer dies.
			if node == 1 {
				return &blockio.FaultDevice{Inner: dev, FailEvery: 4}
			}
			return dev
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sizing{threads: 2, batch: 4, depth: 2}.applyTo(e)
	for trial := 0; trial < 10; trial++ {
		_, err := e.Extract(context.Background(), 128, Options{})
		if err == nil {
			t.Fatal("extraction with a failing disk should return an error")
		}
		if !errors.Is(err, blockio.ErrInjected) {
			t.Fatalf("error should wrap the injected fault, got: %v", err)
		}
	}
	waitGoroutines(t, before)
}

// TestExtractCancellation checks the context path end to end: an
// already-cancelled context fails fast, and cancelling mid-extraction aborts
// the pipeline on every node with ctx's error and no leaked goroutines.
func TestExtractCancellation(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 2, ThreadsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Extract(pre, 128, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled extract returned %v, want context.Canceled", err)
	}

	// Slow the producer's batches down so cancellation lands mid-stream.
	sizing{threads: 2, batch: 4, depth: 2}.applyTo(e)
	before := runtime.NumGoroutine()
	for trial := 0; trial < 10; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(trial) * 200 * time.Microsecond)
			cancel()
		}()
		res, err := e.Extract(ctx, 128, Options{})
		if err == nil {
			if res == nil || res.Triangles == 0 {
				t.Fatal("uncancelled extraction returned an empty result")
			}
			continue // cancel landed after completion; fine
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: error %v does not wrap context.Canceled", trial, err)
		}
	}
	waitGoroutines(t, before)
}

// TestExtractConcurrentSameEngine runs many concurrent extractions against
// one shared engine — the serving layer's access pattern — and checks results
// stay correct and deterministic under -race. The extractions keep their
// meshes and ask for different surfaces, so two of them sharing a batch mesh
// would hand one the other's triangles.
func TestExtractConcurrentSameEngine(t *testing.T) {
	cfg := Config{Procs: 2}
	e, err := Build(rmGrid(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizing{threads: 1, batch: 4, depth: DefaultPipelineDepth}.applyTo(e)
	isos := []float32{100, 128, 150}
	want := make([][]*geom.Mesh, len(isos))
	for i, iso := range isos {
		want[i] = meshesOf(t, rmGrid(), cfg, iso)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := (w + i) % len(isos)
				res, err := e.Extract(context.Background(), isos[k], Options{KeepMeshes: true})
				if err != nil {
					errs[w] = err
					return
				}
				if err := sameMeshes(res, want[k]); err != nil {
					errs[w] = fmt.Errorf("worker %d, iso %v: %w", w, isos[k], err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// One scratch per node-extraction that ever ran at once, and no more.
	if n := len(e.scratch); n < e.Procs || n > workers*e.Procs {
		t.Errorf("engine retains %d scratches after %d concurrent extractions on %d nodes", n, workers, e.Procs)
	}
}

// TestWeldBatchZeroAllocSteadyState is the pipeline allocation gate: once a
// worker's scratch (the Welder, with its copy of a two- or four-byte record's
// samples, and the mesh) has warmed up, processing a batch must not
// allocate, in any scalar format. A regression here silently reintroduces
// per-batch garbage across every extraction.
func TestWeldBatchZeroAllocSteadyState(t *testing.T) {
	rm := rmGrid()
	for _, f := range []volume.Format{volume.U8, volume.U16, volume.F32} {
		g := volume.New(rm.Nx, rm.Ny, rm.Nz, f)
		g.Fill(rm.At)
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
		im := &geom.Mesh{}
		const iso = 110
		if _, err := weldBatch(l, buf, nrec, recSize, iso, &w, im); err != nil {
			t.Fatal(err)
		}
		if im.Len() == 0 {
			t.Fatalf("%v: the batch welds to nothing; the gate is vacuous", f)
		}
		allocs := testing.AllocsPerRun(10, func() {
			im.Reset()
			if _, err := weldBatch(l, buf, nrec, recSize, iso, &w, im); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: steady-state weldBatch allocates %v per batch, want 0", f, allocs)
		}
	}
}

// TestDefaultSizingOnThePublicPath pins what an extraction nobody sized
// reports: full DefaultBatchRecords hand-offs, and record staging within
// DefaultPipelineDepth of them, on a node with more records than that.
func TestDefaultSizingOnThePublicPath(t *testing.T) {
	e, err := Build(volume.RichtmyerMeshkov(129, 129, 113, 230, 7), Config{Procs: 1, ThreadsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Extract(context.Background(), 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(DefaultPipelineDepth * DefaultBatchRecords * e.Layout.RecordSize())
	for i := range res.PerNode {
		n := &res.PerNode[i]
		if n.ActiveMetacells <= DefaultPipelineDepth*DefaultBatchRecords {
			t.Fatalf("node %d: %d active metacells cannot fill the pipeline", i, n.ActiveMetacells)
		}
		if want := (n.ActiveMetacells + DefaultBatchRecords - 1) / DefaultBatchRecords; n.Batches != want {
			t.Errorf("node %d: %d hand-offs for %d records, want %d", i, n.Batches, n.ActiveMetacells, want)
		}
		if n.PeakBufferedBytes <= 0 || n.PeakBufferedBytes > bound {
			t.Errorf("node %d: peak buffered %d bytes outside (0, %d]", i, n.PeakBufferedBytes, bound)
		}
	}
}

// TestResultIsOneExactAllocation pins what the expand phase is for: the kept
// form of the surface — the mesh's two arrays (KeepMeshes) or the chunks
// (KeepChunks) — is allocated once, at its length, and it is all a warmed
// extraction allocates: a staging copy, or a result grown by append, would
// read 2× here.
func TestResultIsOneExactAllocation(t *testing.T) {
	// A large surface and 64-record batches, so that what an extraction
	// allocates whatever its size — the query's read buffer of one batch is
	// nearly all of it — hides well under 2 %.
	e, err := Build(volume.RichtmyerMeshkov(129, 129, 113, 230, 7), Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	sizing{threads: 1, depth: DefaultPipelineDepth, batch: 64}.applyTo(e)
	for _, opts := range []Options{{KeepMeshes: true}, {KeepChunks: true}} {
		var res *Result
		var before, after runtime.MemStats
		for run := 0; run < 3; run++ { // the first two warm the scratch
			runtime.ReadMemStats(&before)
			if res, err = e.Extract(context.Background(), 110, opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
		}
		n := res.PerNode[0]
		kept := float64(len(n.Chunks))
		if opts.KeepMeshes {
			m := n.Mesh
			if m.Len() != res.Triangles || cap(m.Idx) != len(m.Idx) || cap(m.Verts) != len(m.Verts) {
				t.Errorf("mesh of %d triangles has %d indices of capacity %d, %d vertices of capacity %d", res.Triangles, len(m.Idx), cap(m.Idx), len(m.Verts), cap(m.Verts))
			}
			kept = float64(12*len(m.Verts) + 4*len(m.Idx))
		} else if cap(n.Chunks) != len(n.Chunks) || kept < 6*float64(res.Triangles) {
			t.Errorf("%d triangles kept in %d chunk bytes of capacity %d", res.Triangles, len(n.Chunks), cap(n.Chunks))
		}
		alloc := float64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%+v: %.0f B allocated for %.0f B kept: %.4f×", opts, alloc, kept, alloc/kept)
		if alloc > 1.02*kept {
			t.Errorf("%+v: a warmed extraction allocated %.0f B for %.0f B kept (%.3f×), want ≤ 1.02×", opts, alloc, kept, alloc/kept)
		}
	}
}

// TestExpandPhaseDisjoint runs the expand phase with as many claims on the
// batch counter as there are records, from two, three and five lanes, under
// the race detector in CI: every lane writes only the part of the mesh's
// arrays and of the chunk buffer its batch owns, and the parts tile them.
func TestExpandPhaseDisjoint(t *testing.T) {
	g := pipeGrid()
	cfg := Config{Procs: 1}
	want := meshesOf(t, g, cfg, 100)
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4} {
		sizing{threads: threads, depth: 2, batch: 1}.applyTo(e)
		for run := 0; run < 3; run++ {
			res, err := e.Extract(context.Background(), 100, Options{KeepMeshes: true, KeepChunks: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.PerNode[0].Batches != res.Active {
				t.Fatalf("threads=%d: %d hand-offs for %d records, want one each", threads, res.PerNode[0].Batches, res.Active)
			}
			if err := sameMeshes(res, want); err != nil {
				t.Errorf("threads=%d run %d: %v", threads, run, err)
			}
			if m, err := meshio.DecodeChunks(res.PerNode[0].Chunks); err != nil || !sameSurface(m, want[0]) {
				t.Errorf("threads=%d run %d: chunks do not decode to the reference (err %v)", threads, run, err)
			}
		}
	}
}

// TestScratchLedger is the engine's line of the memory ledger: after the
// eleven-isovalue sweep with kept meshes the scratch the engine retains — the
// mem_engine_scratch_bytes gauge, which is what pipeScratch.bytes adds up —
// is the welded batches of the largest surfaces, about 20 B a triangle, plus
// a fixed part (record ring, welders); the staging soup it replaced was 36 B
// a triangle on its own.
func TestScratchLedger(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := Build(volume.RichtmyerMeshkov(96, 96, 90, 250, 42), Config{Procs: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for iso := float32(10); iso <= 210; iso += 20 {
		res, err := e.Extract(context.Background(), iso, Options{KeepMeshes: true})
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, res.Triangles)
	}
	if len(e.scratch) != 1 {
		t.Fatalf("engine retains %d scratches after a sequential sweep", len(e.scratch))
	}
	sc := e.scratch[0]
	retained := int64(reg.Gauge("mem_engine_scratch_bytes", "").Value())
	if retained != sc.bytes() {
		t.Errorf("gauge reads %d B, the free list holds %d B", retained, sc.bytes())
	}
	fixed := int64(e.pipelineDepth * e.batchRecords * e.Layout.RecordSize())
	for i := range sc.welders {
		fixed += int64(sc.welders[i].RetainedBytes())
	}
	perTri := float64(retained-fixed) / float64(largest)
	t.Logf("retained %d B = fixed %d B + %.1f B × the largest surface's %d triangles", retained, fixed, perTri, largest)
	if bound := int64(1.1*20*float64(largest)) + fixed; retained > bound {
		t.Errorf("scratch retains %d B, want ≤ 1.1 × 20 B × %d triangles + %d B fixed = %d B", retained, largest, fixed, bound)
	}
}

// sameSurface reports whether two meshes hold the same arrays, vertex bits
// and indices alike, and expand to the same soup bit for bit: the
// byte-identity tests' comparison. An index past the vertices, such as a
// poisoned one no lane wrote, makes the meshes differ.
func sameSurface(a, b *geom.Mesh) bool {
	if !slices.Equal(a.Idx, b.Idx) || !slices.Equal(vertBits(a.Verts...), vertBits(b.Verts...)) {
		return false
	}
	sa, sb := make([]geom.Triangle, a.Len()), make([]geom.Triangle, b.Len())
	if !geom.Gather(sa, a.Verts, a.Idx) || !geom.Gather(sb, b.Verts, b.Idx) {
		return false
	}
	for i := range sa {
		if !slices.Equal(vertBits(sa[i].A, sa[i].B, sa[i].C), vertBits(sb[i].A, sb[i].B, sb[i].C)) {
			return false
		}
	}
	return true
}

// vertBits is the vertices' coordinates as their bit patterns.
func vertBits(vs ...geom.Vec3) []uint32 {
	b := make([]uint32, 0, 3*len(vs))
	for _, v := range vs {
		b = append(b, math.Float32bits(v.X), math.Float32bits(v.Y), math.Float32bits(v.Z))
	}
	return b
}
