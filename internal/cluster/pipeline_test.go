package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/geom"
	"repro/internal/volume"
)

// pipeGrid is big enough (366 metacells, ~250 active at iso 100) that small
// batches put many more hand-offs through the pipeline than its ring holds.
func pipeGrid() *volume.Grid { return volume.RichtmyerMeshkov(65, 65, 57, 230, 7) }

// waitGoroutines fails the test unless the goroutine count is back at (or
// under) before within two seconds: pipeline goroutines exit before Extract
// returns, the runtime only needs a moment to retire them.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// meshesOf extracts iso on a fresh engine's reference schedule: the bytes
// every pipeline shape and engine state must reproduce.
func meshesOf(t *testing.T, g *volume.Grid, cfg Config, iso float32) []*geom.Mesh {
	t.Helper()
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	meshes, err := twoPhase(t, e, iso).Meshes()
	if err != nil {
		t.Fatal(err)
	}
	return meshes
}

func sameMeshes(got *Result, want []*geom.Mesh) error {
	for i := range want {
		if !slices.Equal(got.PerNode[i].Mesh.Tris, want[i].Tris) {
			return fmt.Errorf("node %d: %d triangles, not byte-identical to the reference's %d",
				i, got.PerNode[i].Mesh.Len(), want[i].Len())
		}
	}
	return nil
}

// TestStreamingMatchesTwoPhaseGrid walks the pipeline's whole shape space —
// two lanes or several finishing batches out of order, a record ring shorter
// or much longer than the lane count, one record per hand-off up to the whole
// extraction in one — and holds every point to the two-phase bytes. Each case
// runs under a deadline: a lane left waiting at the barrier would hang here,
// and cancellation turns the hang into a failure.
func TestStreamingMatchesTwoPhaseGrid(t *testing.T) {
	g := pipeGrid()
	const iso = 100
	cfg := Config{Procs: 2}
	want := meshesOf(t, g, cfg, iso)
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4} {
		for _, depth := range []int{1, 2, 8} {
			for _, batch := range []int{1, 7, 64, 1024} {
				sizing{threads: threads, depth: depth, batch: batch}.applyTo(e)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := e.Extract(ctx, iso, Options{KeepMeshes: true})
				cancel()
				if err != nil {
					t.Fatalf("threads=%d depth=%d batch=%d: %v", threads, depth, batch, err)
				}
				if err := sameMeshes(res, want); err != nil {
					t.Errorf("threads=%d depth=%d batch=%d: %v", threads, depth, batch, err)
				}
				for i := range res.PerNode {
					n := &res.PerNode[i]
					if hand := (n.ActiveMetacells + batch - 1) / batch; n.Batches != hand {
						t.Errorf("threads=%d depth=%d batch=%d node %d: %d hand-offs for %d records, want full batches: %d",
							threads, depth, batch, i, n.Batches, n.ActiveMetacells, hand)
					}
				}
			}
		}
	}
}

// TestPipelineMemoryBounds is the white-box half of the pipeline's memory
// statement: however a node-extraction ends — drained, cancelled mid-stream,
// or killed by a disk that fails for good — its record ring never held more
// than depth×batch×recordSize bytes, and everything it worked in is the one
// scratch it borrowed and gave back: depth record buffers of exactly
// batch×recordSize, a welder per lane (threads+1), and the welded meshes — one
// per lane when the extraction only counts, at most one per batch when it
// keeps its surface — and nothing that is a soup.
func TestPipelineMemoryBounds(t *testing.T) {
	g := pipeGrid()
	type ending struct {
		name string
		wrap func(blockio.Device) blockio.Device
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}
	background := func() (context.Context, context.CancelFunc) {
		return context.WithCancel(context.Background())
	}
	endings := []ending{
		{name: "drained", ctx: background},
		{name: "cancelled", want: context.DeadlineExceeded,
			// Slow reads, so the deadline lands with batches in flight.
			wrap: func(d blockio.Device) blockio.Device {
				return &blockio.FaultDevice{Inner: d, Latency: time.Millisecond}
			},
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 5*time.Millisecond)
			}},
		{name: "persistent fault", ctx: background, want: blockio.ErrInjected,
			wrap: func(d blockio.Device) blockio.Device {
				return &blockio.FaultDevice{Inner: d, FailEvery: 9, Persistent: true}
			}},
	}
	for _, end := range endings {
		for _, shape := range []sizing{
			{threads: 1, depth: 1, batch: 1},
			{threads: 2, depth: 2, batch: 7},
			{threads: 3, depth: 4, batch: 64},
		} {
			for _, keep := range []bool{false, true} {
				name := fmt.Sprintf("%s/t%d-d%d-b%d-keep=%v", end.name, shape.threads, shape.depth, shape.batch, keep)
				e, err := Build(g, Config{Procs: 1, WrapDevice: func(_ int, d blockio.Device) blockio.Device {
					if end.wrap != nil {
						return end.wrap(d)
					}
					return d
				}})
				if err != nil {
					t.Fatal(err)
				}
				shape.applyTo(e)
				batches := 0 // most hand-offs any run got to
				for run := 0; run < 3; run++ {
					ctx, cancel := end.ctx()
					nr, err := e.extractNodeStreaming(ctx, 0, 100, Options{KeepMeshes: keep})
					cancel()
					if !errors.Is(err, end.want) {
						t.Fatalf("%s: error %v, want %v", name, err, end.want)
					}
					bound := int64(shape.depth * shape.batch * e.Layout.RecordSize())
					if nr.PeakBufferedBytes > bound {
						t.Errorf("%s: %d record bytes buffered at once, bound %d", name, nr.PeakBufferedBytes, bound)
					}
					if err == nil && nr.PeakBufferedBytes == 0 {
						t.Errorf("%s: a drained pipeline reports no buffered bytes", name)
					}
					batches = max(batches, nr.Batches)
				}
				// Three runs, one at a time: one scratch, lent out three times.
				if len(e.scratch) != 1 {
					t.Fatalf("%s: engine retains %d scratches after sequential runs, want 1", name, len(e.scratch))
				}
				sc := e.scratch[0]
				lanes := shape.threads + 1
				// An aborted hand-off may have named its mesh already.
				if keep && (len(sc.meshes) < batches || len(sc.meshes) > batches+1) {
					t.Errorf("%s: %d batch meshes exist after at most %d hand-offs", name, len(sc.meshes), batches)
				} else if !keep && len(sc.meshes) != lanes {
					t.Errorf("%s: %d meshes exist, want one per lane: %d", name, len(sc.meshes), lanes)
				}
				if ty := reflect.TypeOf(*sc); ty.NumField() != 3 {
					t.Errorf("%s: the scratch has %d fields, want recs, welders and meshes: a staging soup is back?", name, ty.NumField())
				}
				if len(sc.welders) != lanes {
					t.Errorf("%s: %d welders exist, want one per lane: %d", name, len(sc.welders), lanes)
				}
				if len(sc.recs) != shape.depth {
					t.Errorf("%s: %d record buffers exist, want the ring's %d", name, len(sc.recs), shape.depth)
				}
				for i, buf := range sc.recs {
					if want := shape.batch * e.Layout.RecordSize(); len(buf) != 0 || cap(buf) != want {
						t.Errorf("%s: record buffer %d has len %d cap %d, want an empty one of exactly %d", name, i, len(buf), cap(buf), want)
					}
				}
			}
		}
	}
}

// armedDevice reads through to the inner device until a test arms it; then
// it fails every read after the first few, or hands back records whose ID
// field names no metacell — the one way a weld, and so a lane, can fail.
type armedDevice struct {
	blockio.Device
	failReads atomic.Bool
	scribble  atomic.Bool
	reads     atomic.Int64
}

func (d *armedDevice) ReadAt(p []byte, off int64) error {
	n := d.reads.Add(1)
	if d.failReads.Load() && n%4 == 0 {
		return blockio.ErrInjected
	}
	if err := d.Device.ReadAt(p, off); err != nil {
		return err
	}
	if d.scribble.Load() && n%4 == 0 {
		copy(p, []byte{0xff, 0xff, 0xff, 0xff})
	}
	return nil
}

// TestAbortedKeepMeshesLeavesEngineClean aborts KeepMeshes extractions the
// three ways a pipeline can die — the producer's read fails, a worker's
// decode fails, the caller cancels — with batches welded out of order and
// others not yet at that moment, and then asks the same engine for a surface:
// no goroutine may be left, and the mesh must be the bytes a fresh engine
// produces, not what the batch meshes of the aborted run still hold. Nor may
// what the retained scratch last held show: welders whose edge tables are full of
// another isovalue's vertex ids and whose sample copy is another record's,
// record buffers full of noise.
func TestAbortedKeepMeshesLeavesEngineClean(t *testing.T) {
	g := pipeGrid()
	cfg := Config{Procs: 2, ThreadsPerNode: 2}
	want := map[float32][]*geom.Mesh{100: meshesOf(t, g, cfg, 100), 150: meshesOf(t, g, cfg, 150)}

	var devs []*armedDevice
	cfg.WrapDevice = func(_ int, d blockio.Device) blockio.Device {
		ad := &armedDevice{Device: d}
		devs = append(devs, ad)
		return ad
	}
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizing{threads: 2, batch: 4, depth: 2}.applyTo(e)
	opts := Options{KeepMeshes: true}
	check := func(after string) {
		t.Helper()
		for iso, ref := range want {
			res, err := e.Extract(context.Background(), iso, opts)
			if err != nil {
				t.Fatalf("after %s: iso %v: %v", after, iso, err)
			}
			if err := sameMeshes(res, ref); err != nil {
				t.Errorf("after %s: iso %v: %v", after, iso, err)
			}
		}
	}
	check("nothing") // warms the scratch: later aborts find it full of a previous surface
	before := runtime.NumGoroutine()

	for trial := 0; trial < 5; trial++ {
		devs[1].failReads.Store(true)
		if _, err := e.Extract(context.Background(), 100, opts); !errors.Is(err, blockio.ErrInjected) {
			t.Fatalf("failing disk: error %v, want the injected fault", err)
		}
		devs[1].failReads.Store(false)
	}
	waitGoroutines(t, before)
	check("read faults")

	for trial := 0; trial < 5; trial++ {
		devs[0].scribble.Store(true)
		_, err := e.Extract(context.Background(), 100, opts)
		devs[0].scribble.Store(false)
		if err == nil || errors.Is(err, blockio.ErrInjected) || errors.Is(err, context.Canceled) {
			t.Fatalf("records naming metacells outside the layout: error %v, want a decode error", err)
		}
	}
	waitGoroutines(t, before)
	check("decode faults")

	for trial := 0; trial < 10; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(trial) * 100 * time.Microsecond)
			cancel()
		}()
		if _, err := e.Extract(ctx, 100, opts); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: error %v does not wrap context.Canceled", trial, err)
		}
		cancel()
	}
	waitGoroutines(t, before)
	check("cancellations")

	// No extraction is running, so every scratch is on the free list. Leave
	// each welder as welds of a dense record at far-off isovalues leave it
	// (every edge-table entry it touched names a vertex of a mesh that is
	// gone; a wider format's sample copy holds that record), and the record
	// ring as an abort halfway through might.
	if len(e.scratch) == 0 {
		t.Fatal("engine retains no scratch after sequential extractions")
	}
	noise := make([]byte, e.Layout.RecordSize())
	for j := range noise[4:] {
		noise[4+j] = byte(j * 89)
	}
	for _, sc := range e.scratch {
		if len(sc.welders) == 0 {
			t.Fatal("a retained scratch has no welder")
		}
		for i := range sc.welders {
			var gone geom.IndexedMesh
			gone.Verts = make([]geom.Vec3, 1<<20) // ids far past any batch mesh's
			for _, iso := range []float32{30, 220} {
				if n, err := sc.welders[i].Record(e.Layout, noise, iso, &gone); err != nil || n == 0 {
					t.Fatalf("welding the noise record at %v: %d active cells, error %v", iso, n, err)
				}
			}
		}
		for _, buf := range sc.recs {
			buf = buf[:cap(buf)]
			for j := range buf {
				buf[j] = 0xa5
			}
		}
	}
	check("a scribbled-on scratch")
}
