package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/march"
	"repro/internal/meshio"
	"repro/internal/metacell"
	"repro/internal/obs"
)

// errPipelineAborted is what the producer returns from its emit callback once
// a lane has failed; the lane's error is the one reported.
var errPipelineAborted = errors.New("cluster: pipeline aborted")

// streamBatch is one pipeline hand-off: whole records back to back in buf,
// whose capacity is the full batch buffer being circulated, and, when the
// extraction keeps its surface, the mesh this batch is to be welded into.
type streamBatch struct {
	buf  []byte
	mesh *geom.IndexedMesh
}

// pipeScratch is what one node-extraction borrows from its engine for as long
// as it runs: the record ring the producer fills, each lane's welder, and the
// welded meshes — for an extraction that keeps its surface (KeepMeshes,
// KeepChunks) one per batch, in record order, which the surface is gathered
// or encoded from; without, one per lane, welded into and counted.
// The engine keeps them between extractions (warmed-up capacity is the
// point): one pipeScratch per node-extraction that has ever run at once.
type pipeScratch struct {
	recs    [][]byte       // record buffers, each of exactly batchRecords×recordSize capacity
	welders []march.Welder // one per lane
	meshes  []*geom.IndexedMesh
}

// bytes is the heap the scratch holds on to, by capacity.
func (sc *pipeScratch) bytes() int64 {
	n := 0
	for _, buf := range sc.recs {
		n += cap(buf)
	}
	for i := range sc.welders {
		n += sc.welders[i].RetainedBytes()
	}
	for _, im := range sc.meshes {
		n += 12*cap(im.Verts) + 4*cap(im.Idx)
	}
	return int64(n)
}

// takeScratch lends out a scratch with at least depth empty record buffers of
// bufBytes capacity, a welder per lane and — for an extraction that only
// counts — a mesh per lane; one that keeps its surface grows the mesh list a
// batch at a time as the producer hands batches over.
func (e *Engine) takeScratch(lanes, depth, bufBytes int, keep bool) *pipeScratch {
	var sc *pipeScratch
	e.scratchMu.Lock()
	if n := len(e.scratch); n > 0 {
		sc, e.scratch = e.scratch[n-1], e.scratch[:n-1]
	}
	e.scratchMu.Unlock()
	if sc == nil {
		sc = new(pipeScratch)
	}
	for len(sc.recs) < depth {
		sc.recs = append(sc.recs, nil)
	}
	for i, buf := range sc.recs[:depth] {
		// A full buffer is the producer's signal to hand it over, so the
		// capacity is the batch size exactly.
		if cap(buf) < bufBytes {
			buf = make([]byte, 0, bufBytes)
		}
		sc.recs[i] = buf[:0:bufBytes]
	}
	for len(sc.welders) < lanes {
		sc.welders = append(sc.welders, march.Welder{})
	}
	for !keep && len(sc.meshes) < lanes {
		sc.meshes = append(sc.meshes, new(geom.IndexedMesh))
	}
	return sc
}

// putScratch takes a scratch back once every goroutine that could touch it
// has exited; whatever an aborted extraction left in it is reset on reuse.
func (e *Engine) putScratch(sc *pipeScratch) {
	e.scratchMu.Lock()
	e.scratch = append(e.scratch, sc)
	if e.met != nil {
		var retained int64
		for _, sc := range e.scratch {
			retained += sc.bytes()
		}
		e.met.scratchBytes.Set(float64(retained))
	}
	e.scratchMu.Unlock()
}

// weldBatch triangulates one batch's records, where they lie in buf, into
// out's welded indexed mesh, returning the number of active cells. This is
// a lane's steady-state weld-phase body: once the caller's scratch (w, out)
// has warmed up it must not allocate — TestWeldBatchZeroAllocSteadyState is
// the regression gate.
func weldBatch(l metacell.Layout, buf []byte, nrec, recSize int, iso float32, w *march.Welder, out *geom.IndexedMesh) (int, error) {
	cells := 0
	for r := 0; r < nrec; r++ {
		n, err := w.Record(l, buf[r*recSize:(r+1)*recSize], iso, out)
		if err != nil {
			return cells, err
		}
		cells += n
	}
	return cells, nil
}

// runLanes runs fn(0..n-1) at once, the last on the calling goroutine, each
// under the pprof labels lane=<lane> and node=<node> so a CPU profile splits
// the way the trace's waterfall does, and returns when all have.
func runLanes(ctx context.Context, n int, lane string, node int, fn func(t int)) {
	labels := pprof.Labels("lane", lane, "node", strconv.Itoa(node))
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for t := 0; t < n-1; t++ {
		go func() {
			defer wg.Done()
			pprof.Do(ctx, labels, func(context.Context) { fn(t) })
		}()
	}
	pprof.Do(ctx, labels, func(context.Context) { fn(n - 1) })
	wg.Wait()
}

// laneStats is what one lane accounts for: time blocked on an empty pipeline,
// time welding, time gathering, and what it welded.
type laneStats struct {
	stall, weld, expand time.Duration
	cells, tris         int
	err                 error
}

// extractNodeStreaming is the per-node streaming schedule. A producer
// goroutine walks the compact interval tree and packs the active records into
// a ring of pipelineDepth buffers of batchRecords records, handing each over
// when it is full. Threads+1 identical lanes — the node's Threads goroutines
// and this one — do both of the node's CPU jobs, in two phases with one
// barrier between them. Weld: every lane takes batches off the ring as they
// arrive and welds each into the mesh the producer named for it (the seq'th
// of the scratch's list), or into the lane's own when the extraction only
// counts. Expand (KeepMeshes or KeepChunks only, once the ring has drained
// without error or cancellation): every batch's size is now exact, so each
// kept form is one allocation of its length — the soup, the chunk buffer —
// prefix sums of the per-batch sizes give every batch its part of it, and the
// lanes claim batches off a counter and gather or encode straight into place:
// disjoint writes, nothing to reorder or copy twice.
//
// Peak record staging is pipelineDepth×batchRecords×recordSize bytes — a
// constant of the engine — where the paper's retrieve-then-triangulate
// schedule stages all active metacell bytes, which grow with the isosurface. Cancelling ctx trips the
// same done channel a lane's failure does: the producer stops within one
// batch and every lane leaves the weld phase at its next hand-off.
func (e *Engine) extractNodeStreaming(ctx context.Context, node int, iso float32, opts Options) (NodeResult, error) {
	nr := NodeResult{Node: node}
	dev := e.devs[node]
	ioBefore := dev.Stats()
	recSize := e.Layout.RecordSize()
	batchRecs, depth := e.batchRecords, e.pipelineDepth
	lanes := max(e.Threads, 1) + 1

	keep := opts.KeepMeshes || opts.KeepChunks
	sc := e.takeScratch(lanes, depth, batchRecs*recSize, keep)
	defer e.putScratch(sc)

	// The record ring. depth full batches may wait for a lane, which is what
	// lets the producer run that far ahead.
	work := make(chan streamBatch, depth)
	free := make(chan []byte, depth)
	for _, buf := range sc.recs[:depth] {
		free <- buf
	}

	done := make(chan struct{}) // closed on the first lane failure or ctx cancel
	abort := sync.OnceFunc(func() { close(done) })
	// Cancellation folds into the pipeline's own abort channel.
	defer context.AfterFunc(ctx, abort)()

	// Record bytes in the ring. Only the producer adds, so only it sees a peak.
	var buffered atomic.Int64

	// Producer: consecutive query emissions are packed, in record order, into
	// the buffer being filled, which goes downstream when it holds
	// batchRecs records (the last one when the walk ends). Blocking on an
	// exhausted free list (all depth buffers in flight) is precisely the
	// pipeline's memory bound; the time spent there is reported as
	// ProducerStall. Until it is done, nr's pipeline statistics are its alone.
	var qerr error
	start := time.Now()
	prodDone := make(chan struct{})
	go pprof.Do(ctx, pprof.Labels("lane", "prod", "node", strconv.Itoa(node)), func(context.Context) {
		defer close(prodDone)
		defer close(work)
		var cur []byte // the buffer being filled; nil between hand-offs
		send := func() error {
			sb := streamBatch{buf: cur}
			if keep {
				if nr.Batches == len(sc.meshes) {
					sc.meshes = append(sc.meshes, new(geom.IndexedMesh))
				}
				sb.mesh = sc.meshes[nr.Batches]
			}
			tw := time.Now()
			select {
			case work <- sb:
			case <-done:
				return errPipelineAborted
			}
			nr.ProducerStall += time.Since(tw) // every slot ahead of the lanes is taken
			nr.Batches++
			nr.ActiveMetacells += len(cur) / recSize
			cur = nil
			return nil
		}
		_, qerr = e.trees[node].QueryBatches(dev, iso, batchRecs, func(batch []byte, _ int) error {
			for len(batch) > 0 {
				if cur == nil {
					tw := time.Now()
					select {
					case cur = <-free:
					case <-done:
						return errPipelineAborted
					}
					nr.ProducerStall += time.Since(tw)
				}
				n := copy(cur[len(cur):cap(cur)], batch)
				cur, batch = cur[:len(cur)+n], batch[n:]
				nr.PeakBufferedBytes = max(nr.PeakBufferedBytes, buffered.Add(int64(n)))
				if len(cur) == cap(cur) {
					if err := send(); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if len(cur) > 0 && qerr == nil {
			if err := send(); err != nil {
				qerr = err
			}
		}
		nr.AMCWall = time.Since(start) - nr.ProducerStall // busy time: query + batch copies
	})

	// Weld phase. A record that is not the layout's aborts the pipeline: done
	// unblocks the producer, which closes work, and every waiting lane.
	ls := make([]laneStats, lanes)
	runLanes(ctx, lanes, "weld", node, func(t int) {
		l, w := &ls[t], &sc.welders[t]
		for {
			tw := time.Now()
			var sb streamBatch
			select {
			case sb = <-work:
			case <-done:
			}
			l.stall += time.Since(tw)
			if sb.buf == nil { // drained, or aborted
				return
			}
			im := sb.mesh
			if im == nil {
				im = sc.meshes[t]
			}
			tb := time.Now()
			im.Reset()
			cells, err := weldBatch(e.Layout, sb.buf, len(sb.buf)/recSize, recSize, iso, w, im)
			batchDur := time.Since(tb)
			l.weld += batchDur
			if e.met != nil {
				e.met.batchWeld.Observe(batchDur)
			}
			buffered.Add(-int64(len(sb.buf)))
			free <- sb.buf[:0]
			if err != nil {
				l.err = fmt.Errorf("cluster: node %d decode: %w", node, err)
				abort()
				return
			}
			l.cells += cells
			l.tris += im.Len()
		}
	})
	<-prodDone

	nr.IOStats = dev.Stats().Sub(ioBefore)
	nr.IOModelTime = e.Disk.Time(nr.IOStats)
	err := ctx.Err()
	for _, l := range ls {
		nr.ActiveCells += l.cells
		nr.Triangles += l.tris
		nr.TriWall = max(nr.TriWall, l.weld) // slowest lane's triangulation busy time
		nr.ConsumerStall += l.stall
		if err == nil {
			err = l.err
		}
	}
	if err == nil && qerr != nil && !errors.Is(qerr, errPipelineAborted) {
		err = fmt.Errorf("cluster: node %d query: %w", node, qerr)
	}

	// Expand phase: the one allocation per kept form that scales with the
	// surface, made at its exact length and filled by every lane at once —
	// the soup (KeepMeshes) gathered, the chunks (KeepChunks) encoded.
	expandStart := time.Since(start)
	if err == nil && keep {
		batches := sc.meshes[:nr.Batches]
		var triOffs, chunkOffs []int
		var tris []geom.Triangle
		var chunks []byte
		if opts.KeepMeshes {
			triOffs = prefixSums(batches, (*geom.IndexedMesh).Len)
			tris = geom.MakeSoup(triOffs[len(batches)]) // the parts cover it, each gathered whole
		}
		if opts.KeepChunks {
			chunkOffs = prefixSums(batches, meshio.ChunkLen)
			chunks = make([]byte, chunkOffs[len(batches)])
		}
		var next atomic.Int64
		runLanes(ctx, lanes, "expand", node, func(t int) {
			te := time.Now()
			for b := next.Add(1) - 1; b < int64(len(batches)); b = next.Add(1) - 1 {
				if triOffs != nil {
					batches[b].Gather(tris[triOffs[b]:triOffs[b+1]])
				}
				if chunkOffs != nil {
					meshio.PutChunk(chunks[chunkOffs[b]:chunkOffs[b+1]], batches[b])
				}
			}
			ls[t].expand = time.Since(te)
		})
		if opts.KeepMeshes {
			nr.Mesh = &geom.Mesh{Tris: tris}
		}
		if opts.KeepChunks {
			nr.Chunks = chunks
		}
		if e.met != nil {
			e.met.merge.Observe(time.Since(start) - expandStart)
		}
	}
	nr.PipelineWall = time.Since(start)
	if err != nil {
		return nr, err
	}

	if opts.Trace {
		// One lane per pipeline actor, its spans in stage order without
		// overlap, so a lane's durations sum to exactly the time that actor
		// has accounted for (the trace property tests rely on this). Busy and
		// stall alternate in reality; the aggregate layout trades that for a
		// constant span count. Expand starts where the phase did.
		prod := fmt.Sprintf("n%d/prod", node)
		nr.spans = append(nr.spans,
			obs.Span{Lane: prod, Name: "query+read", Start: 0, Dur: nr.AMCWall},
			obs.Span{Lane: prod, Name: "stall", Start: nr.AMCWall, Dur: nr.ProducerStall})
		for t, l := range ls {
			lane := fmt.Sprintf("n%d/w%d", node, t)
			nr.spans = append(nr.spans,
				obs.Span{Lane: lane, Name: "wait", Start: 0, Dur: l.stall},
				obs.Span{Lane: lane, Name: "march/weld", Start: l.stall, Dur: l.weld},
				obs.Span{Lane: lane, Name: "expand", Start: expandStart, Dur: l.expand})
		}
	}
	return nr, nil
}

// prefixSums returns the offsets of each batch's part of one buffer holding
// size(batch) of every batch in order; the last is the buffer's length.
func prefixSums(batches []*geom.IndexedMesh, size func(*geom.IndexedMesh) int) []int {
	offs := make([]int, len(batches)+1)
	for b, im := range batches {
		offs[b+1] = offs[b] + size(im)
	}
	return offs
}
