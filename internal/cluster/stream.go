package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/march"
	"repro/internal/metacell"
	"repro/internal/obs"
)

// errPipelineAborted is what the producer returns from its emit callback once
// a worker has failed; the worker's error is the one reported.
var errPipelineAborted = errors.New("cluster: pipeline aborted")

// streamBatch is one pipeline hand-off: whole records back to back in buf,
// whose capacity is the full batch buffer being circulated.
type streamBatch struct {
	seq int
	buf []byte
}

// batchOutput is one worker's result for one batch. The merger puts outputs
// back in seq order as they arrive, so the merged mesh is byte-for-byte the
// one the two-phase schedule produces.
type batchOutput struct {
	seq   int
	cells int
	tris  int
	mesh  *geom.IndexedMesh // the ring mesh the batch was welded into
}

// pipeScratch is what one node-extraction borrows from its engine for as long
// as it runs: the record ring the producer fills, each worker's welder, the
// ring of batch meshes circulating between workers and merger, and the
// staging soup the merger expands them into. The engine keeps them between
// extractions (warmed-up capacity is the point), so what it retains is one
// pipeScratch per node-extraction that has ever run at once.
type pipeScratch struct {
	recs    [][]byte       // record buffers, each of exactly batchRecords×recordSize capacity
	welders []march.Welder // one per pipeline worker
	meshes  []*geom.IndexedMesh
	stage   geom.Mesh
}

// takeScratch lends out a scratch with at least depth empty record buffers of
// bufBytes capacity, threads welders, ring batch meshes and an empty staging
// soup.
func (e *Engine) takeScratch(ring, threads, depth, bufBytes int) *pipeScratch {
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
	for len(sc.welders) < threads {
		sc.welders = append(sc.welders, march.Welder{})
	}
	for len(sc.meshes) < ring {
		sc.meshes = append(sc.meshes, new(geom.IndexedMesh))
	}
	sc.stage.Tris = sc.stage.Tris[:0]
	return sc
}

// putScratch takes a scratch back once every goroutine that could touch it
// has exited; whatever an aborted extraction left in it is reset on reuse.
func (e *Engine) putScratch(sc *pipeScratch) {
	e.scratchMu.Lock()
	e.scratch = append(e.scratch, sc)
	e.scratchMu.Unlock()
}

// weldBatch triangulates one batch's records, where they lie in buf, into
// out's welded indexed mesh, returning the number of active cells. This is
// the pipeline worker's steady-state body: once the caller's scratch (w, out)
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

// extractNodeStreaming is the per-node streaming schedule, a three-stage
// pipeline. A producer goroutine walks the compact interval tree and packs
// the active records into a ring of pipelineDepth buffers of batchRecords
// records, handing each over when it is full; the node's Threads
// marching-cubes workers weld each batch into a mesh from a ring of
// Threads+pipelineDepth; and this goroutine, the merger, puts the welded
// batches back in record order and expands them into the staging soup while
// later batches are still being read and welded. When the pipeline drains the
// result is one exact-length copy of the staging soup.
//
// Peak record staging is pipelineDepth×batchRecords×recordSize bytes — a
// constant of the engine — where the two-phase schedule stages all active
// metacell bytes, which grow with the isosurface.
//
// Cancelling ctx reuses the pipeline's abort path: a watcher trips the same
// done channel a worker failure does, the producer stops within one batch,
// the workers exit, and the merger returns once the last of them has.
func (e *Engine) extractNodeStreaming(ctx context.Context, node int, iso float32, opts Options) (NodeResult, error) {
	nr := NodeResult{Node: node}
	dev := e.devs[node]
	ioBefore := dev.Stats()
	recSize := e.Layout.RecordSize()
	batchRecs, depth := e.batchRecords, e.pipelineDepth
	threads := max(e.Threads, 1)

	ringSize := threads + depth
	sc := e.takeScratch(ringSize, threads, depth, batchRecs*recSize)
	defer e.putScratch(sc)

	// The record ring. depth full batches may wait for a worker, which is
	// what lets the producer run that far ahead.
	work := make(chan streamBatch, depth)
	free := make(chan []byte, depth)
	for _, buf := range sc.recs[:depth] {
		free <- buf
	}

	// The mesh ring. A worker takes its mesh before it takes a batch, and
	// work is first in, first out, so whichever batch the merger is waiting
	// for either owns a mesh already or will be taken by a worker that does:
	// the ring cannot run dry with the merger starved. Every welded batch
	// holds one ring mesh until the merger is done with it, so outs, sized to
	// the ring, never blocks a worker.
	ring := make(chan *geom.IndexedMesh, ringSize)
	for _, im := range sc.meshes[:ringSize] {
		ring <- im
	}
	outs := make(chan batchOutput, ringSize)

	done := make(chan struct{}) // closed on the first worker failure or ctx cancel
	var closeDone sync.Once
	abort := func() { closeDone.Do(func() { close(done) }) }

	// Cancellation folds into the pipeline's own abort channel.
	stopWatch := context.AfterFunc(ctx, abort)
	defer stopWatch()

	var buffered, peakBuffered atomic.Int64

	// Producer: consecutive query emissions are packed, in record order, into
	// the buffer being filled, which goes downstream when it holds
	// batchRecs records (the last one when the walk ends). Blocking on an
	// exhausted free list (all depth buffers in flight) is precisely the
	// pipeline's memory bound; the time spent there is reported as
	// ProducerStall.
	var (
		qerr          error
		producerStall time.Duration
		amcWall       time.Duration
		handoffs      int
		records       int
	)
	start := time.Now()
	var wgProd sync.WaitGroup
	wgProd.Add(1)
	go func() {
		defer wgProd.Done()
		defer close(work)
		var cur []byte // the buffer being filled; nil between hand-offs
		send := func() error {
			tw := time.Now()
			select {
			case work <- streamBatch{seq: handoffs, buf: cur}:
			case <-done:
				return errPipelineAborted
			}
			producerStall += time.Since(tw) // every slot ahead of the workers is taken
			handoffs++
			records += len(cur) / recSize
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
					producerStall += time.Since(tw)
				}
				n := copy(cur[len(cur):cap(cur)], batch)
				cur, batch = cur[:len(cur)+n], batch[n:]
				if now := buffered.Add(int64(n)); now > peakBuffered.Load() {
					storeMax(&peakBuffered, now)
				}
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
		amcWall = time.Since(start)
	}()

	// Workers: weld each batch into a ring mesh, recycle the record buffer,
	// and hand the mesh to the merger. A record that is not the layout's
	// aborts the pipeline: done unblocks the producer and every worker waiting
	// for a mesh, the producer closes work, and the last worker out closes
	// outs — no goroutine outlives this call.
	werrs := make([]error, threads)
	busy := make([]time.Duration, threads)  // per-worker triangulation time
	stall := make([]time.Duration, threads) // per-worker time blocked on the merger or an empty pipeline
	var live atomic.Int32
	live.Store(int32(threads))
	for t := 0; t < threads; t++ {
		go func(t int) {
			defer func() {
				if live.Add(-1) == 0 {
					close(outs)
				}
			}()
			w := &sc.welders[t]
			for {
				tw := time.Now()
				var im *geom.IndexedMesh
				select {
				case im = <-ring:
				case <-done:
					return
				}
				sb, ok := <-work
				stall[t] += time.Since(tw)
				if !ok {
					return
				}
				tb := time.Now()
				im.Reset()
				cells, err := weldBatch(e.Layout, sb.buf, len(sb.buf)/recSize, recSize, iso, w, im)
				batchDur := time.Since(tb)
				busy[t] += batchDur
				if e.met != nil {
					e.met.batchWeld.Observe(batchDur)
				}
				buffered.Add(-int64(len(sb.buf)))
				free <- sb.buf[:0]
				if err != nil {
					werrs[t] = fmt.Errorf("cluster: node %d decode: %w", node, err)
					abort()
					return
				}
				outs <- batchOutput{seq: sb.seq, cells: cells, tris: im.Len(), mesh: im}
			}
		}(t)
	}

	// Merger. Counts add up in any order; with KeepMeshes the batch meshes go
	// through pending, which holds the ones that arrived ahead of their turn
	// (only Threads > 1 ever reorders), and each is expanded into the staging
	// soup and handed back to the ring the moment its predecessors have been.
	// After an abort the awaited batch may never come: what is pending then
	// stays put until the scratch is reused.
	var mergeWait, mergeExpand, mergeCopy time.Duration
	pending := make(map[int]*geom.IndexedMesh)
	next := 0
	for {
		tw := time.Now()
		o, ok := <-outs
		tr := time.Now()
		mergeWait += tr.Sub(tw)
		if !ok {
			break
		}
		nr.ActiveCells += o.cells
		nr.Triangles += o.tris
		if !opts.KeepMeshes {
			ring <- o.mesh
			continue
		}
		pending[o.seq] = o.mesh
		for im := pending[next]; im != nil; im = pending[next] {
			delete(pending, next)
			im.ExpandInto(&sc.stage)
			ring <- im
			next++
		}
		mergeExpand += time.Since(tr)
	}
	wgProd.Wait()

	nr.PipelineWall = time.Since(start)
	nr.ActiveMetacells = records
	nr.Batches = handoffs
	nr.AMCWall = amcWall - producerStall // producer busy time: query + batch copies
	for _, b := range busy {
		if b > nr.TriWall {
			nr.TriWall = b // slowest worker's triangulation busy time
		}
	}
	nr.IOStats = dev.Stats().Sub(ioBefore)
	nr.IOModelTime = e.Disk.Time(nr.IOStats)
	nr.PeakBufferedBytes = peakBuffered.Load()
	nr.ProducerStall = producerStall
	for _, s := range stall {
		nr.ConsumerStall += s
	}

	if err := ctx.Err(); err != nil {
		return nr, err
	}
	for _, err := range werrs {
		if err != nil {
			return nr, err
		}
	}
	if qerr != nil && !errors.Is(qerr, errPipelineAborted) {
		return nr, fmt.Errorf("cluster: node %d query: %w", node, qerr)
	}

	if opts.KeepMeshes {
		// Copy-out: allocation and copy in one pass, exactly the soup's
		// length, so the staging buffer goes back to the engine.
		tc := time.Now()
		nr.Mesh = &geom.Mesh{Tris: append([]geom.Triangle(nil), sc.stage.Tris...)}
		mergeCopy = time.Since(tc)
	}
	if e.met != nil {
		e.met.merge.Observe(mergeExpand + mergeCopy)
	}

	if opts.Trace {
		// One lane per pipeline actor; within a lane spans are laid end to
		// end in stage order, so each lane's durations sum to exactly the
		// time that actor has accounted for (the trace property tests rely on
		// this). Busy and stall alternate in reality; the aggregate layout
		// trades that interleaving for constant span count.
		prod := fmt.Sprintf("n%d/prod", node)
		prodBusy := amcWall - producerStall
		nr.spans = append(nr.spans,
			obs.Span{Lane: prod, Name: "query+read", Start: 0, Dur: prodBusy},
			obs.Span{Lane: prod, Name: "stall", Start: prodBusy, Dur: producerStall})
		for t := 0; t < threads; t++ {
			lane := fmt.Sprintf("n%d/w%d", node, t)
			nr.spans = append(nr.spans,
				obs.Span{Lane: lane, Name: "wait", Start: 0, Dur: stall[t]},
				obs.Span{Lane: lane, Name: "march/weld", Start: stall[t], Dur: busy[t]})
		}
		merge := fmt.Sprintf("n%d/merge", node)
		nr.spans = append(nr.spans,
			obs.Span{Lane: merge, Name: "wait", Start: 0, Dur: mergeWait},
			obs.Span{Lane: merge, Name: "expand", Start: mergeWait, Dur: mergeExpand},
			obs.Span{Lane: merge, Name: "copy-out", Start: mergeWait + mergeExpand, Dur: mergeCopy})
	}
	return nr, nil
}

// storeMax raises p to at least v.
func storeMax(p *atomic.Int64, v int64) {
	for {
		old := p.Load()
		if v <= old || p.CompareAndSwap(old, v) {
			return
		}
	}
}

// MaxPeakBufferedBytes returns the largest per-node pipeline staging peak of
// the extraction (0 for two-phase runs, which report no pipeline stats).
func (r *Result) MaxPeakBufferedBytes() int64 {
	var max int64
	for i := range r.PerNode {
		if b := r.PerNode[i].PeakBufferedBytes; b > max {
			max = b
		}
	}
	return max
}
