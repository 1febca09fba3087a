package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/march"
	"repro/internal/metacell"
	"repro/internal/obs"
)

// ExtractTwoPhase is the reference schedule, not a production path: the
// paper's original retrieve-everything-then-triangulate extraction, whose
// staging memory grows with the isosurface. The streaming Extract must match
// it triangle for triangle; only the equivalence tests, Ablation G and
// BenchmarkExtractTwoPhase call it.
func (e *Engine) ExtractTwoPhase(ctx context.Context, iso float32, opts Options) (*Result, error) {
	return e.extract(ctx, iso, opts, e.extractNodeTwoPhase)
}

// extractNodeTwoPhase is one node's share of it: phase 1 retrieves all active
// metacell records (I/O), phase 2 triangulates them (CPU). Its staging buffer
// grows with the isosurface, which is what the streaming pipeline exists to
// avoid.
func (e *Engine) extractNodeTwoPhase(ctx context.Context, node int, iso float32, opts Options) (NodeResult, error) {
	nr := NodeResult{Node: node}
	dev := e.devs[node]
	ioBefore := dev.Stats()
	recSize := e.Layout.RecordSize()

	// Phase 1: AMC retrieval. Records are copied out of the query's reused
	// buffer; the paper likewise stages active metacells in memory before
	// triangulating. The visitor polls ctx so a cancelled extraction stops
	// issuing disk reads within one record.
	t0 := time.Now()
	var records []byte
	st, err := e.trees[node].Query(dev, iso, func(rec []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		records = append(records, rec...)
		return nil
	})
	if err != nil {
		return nr, fmt.Errorf("cluster: node %d query: %w", node, err)
	}
	nr.AMCWall = time.Since(t0)
	nr.ActiveMetacells = st.ActiveMetacells
	nr.IOStats = dev.Stats().Sub(ioBefore)
	nr.IOModelTime = e.Disk.Time(nr.IOStats)

	// Phase 2: triangulation, split across the node's CPUs (the paper's
	// nodes are 2-way SMPs; Threads controls the fan-out).
	t1 := time.Now()
	numRecs := len(records) / recSize
	threads := e.Threads
	if threads <= 0 || threads > numRecs {
		threads = 1
	}
	meshes := make([]*geom.Mesh, threads)
	activeCounts := make([]int, threads)
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			mesh := &geom.Mesh{}
			var m metacell.Meta
			lo, hi := t*numRecs/threads, (t+1)*numRecs/threads
			for r := lo; r < hi; r++ {
				if r%64 == 0 && ctx.Err() != nil {
					errs[t] = ctx.Err()
					return
				}
				rec := records[r*recSize : (r+1)*recSize]
				if err := metacell.DecodeRecordInto(e.Layout, rec, &m); err != nil {
					errs[t] = fmt.Errorf("cluster: node %d decode: %w", node, err)
					return
				}
				activeCounts[t] += march.Metacell(e.Layout, &m, iso, mesh)
			}
			meshes[t] = mesh
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nr, err
		}
	}
	mesh := meshes[0]
	nr.ActiveCells = activeCounts[0]
	extra := 0
	for t := 1; t < threads; t++ {
		extra += meshes[t].Len()
	}
	mesh.Grow(extra)
	for t := 1; t < threads; t++ {
		mesh.Append(meshes[t].Tris...)
		nr.ActiveCells += activeCounts[t]
	}
	nr.TriWall = time.Since(t1)
	nr.Triangles = mesh.Len()
	if opts.KeepMeshes {
		nr.Mesh = mesh
	}
	if opts.Trace {
		lane := fmt.Sprintf("n%d", node)
		nr.spans = append(nr.spans,
			obs.Span{Lane: lane, Name: "query+read", Start: 0, Dur: nr.AMCWall},
			obs.Span{Lane: lane, Name: "march", Start: nr.AMCWall, Dur: nr.TriWall})
	}
	return nr, nil
}
