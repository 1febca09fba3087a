package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ---------------------------------------------------------------------------
// Serving-layer experiment: throughput vs concurrent clients, with and
// without the query service's coalescing + mesh cache.

// ServingRow reports one client count of the serving experiment. Served runs
// the closed-loop workload through a serve.Server; Direct runs the identical
// workload straight against Engine.Extract with no coalescing or cache.
type ServingRow struct {
	Clients  int `col:"clients"`
	Requests int `col:"reqs"` // total requests issued across all clients

	ServedQPS float64 `col:"served q/s,%.1f"`
	DirectQPS float64 `col:"direct q/s,%.1f"`
	Speedup   float64 `col:"speedup,%.1f×"` // ServedQPS / DirectQPS

	// Delivered geometry throughput (millions of triangles per second):
	// every request counts its result's triangles whether extracted fresh,
	// coalesced onto a neighbor, or served from cache, so cheaper cache
	// misses show up here even when the hit rate is unchanged.
	ServedMtriPerSec float64 `col:"served Mtri/s,%.1f"`
	DirectMtriPerSec float64 `col:"direct Mtri/s,%.1f"`

	HitRate     float64 `col:"hit rate,%.0f%%"` // (cache hits + coalesced) / requests
	CacheHits   int64   `col:"hits"`
	Coalesced   int64   `col:"coalesced"`
	Extractions int64   `col:"extractions"`

	// Served per-request latency percentiles.
	P50 time.Duration `col:"p50"`
	P99 time.Duration `col:"p99"`
}

// closedLoop drives n closed-loop clients through query (which reports the
// triangles its response carried), returning the wall time, the latency
// histogram of the served requests — constant memory however long the run,
// and the same quantile math the serving layer itself exports — and the total
// triangles delivered. The first failed request stops the run and is returned.
func (w ServingWorkload) closedLoop(ctx context.Context, n int, query func(ctx context.Context, iso float32) (int, error)) (time.Duration, *obs.Histogram, int64, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	lat := obs.NewHistogram()
	var tris atomic.Int64
	var failed sync.Once
	var first error
	wall, _ := w.Drive(runCtx, Load{Clients: n},
		func(ctx context.Context, k int, iso float32) error {
			nt, err := query(ctx, iso)
			if err != nil {
				return fmt.Errorf("harness: client %d (iso %v): %w", k, iso, err)
			}
			tris.Add(int64(nt))
			return nil
		},
		func(d time.Duration, err error) {
			if err != nil {
				failed.Do(func() { first = err; cancel() })
				return
			}
			lat.Observe(d)
		})
	if first == nil {
		first = ctx.Err()
	}
	if first != nil {
		return 0, nil, 0, first
	}
	return wall, lat, tris.Load(), nil
}

// ServingTable runs the serving experiment over the given client counts: the
// same Zipf workload first through a fresh serve.Server (coalescing + mesh
// cache + admission control) and then directly against Engine.Extract. The
// server's queue is sized to the client population so closed-loop clients
// saturate the extraction slots instead of being shed.
func ServingTable(ctx context.Context, cfg RMConfig, procs int, clientCounts []int, w ServingWorkload, scfg serve.Config) ([]ServingRow, error) {
	w = w.withDefaults()
	eng, err := Engine(cfg, procs)
	if err != nil {
		return nil, err
	}
	var rows []ServingRow
	for _, n := range clientCounts {
		if n < 1 {
			return nil, fmt.Errorf("harness: client count must be ≥ 1, got %d", n)
		}
		c := scfg
		if c.QueueDepth == 0 {
			c.QueueDepth = n // never shed the benchmark's own closed loop
		}
		srv := serve.New(eng, c)
		servedWall, lats, servedTris, err := w.closedLoop(ctx, n, func(ctx context.Context, iso float32) (int, error) {
			resp, err := srv.Query(ctx, 0, iso)
			if err != nil {
				return 0, err
			}
			return resp.Result.Triangles, nil
		})
		if err != nil {
			return nil, err
		}
		directWall, _, directTris, err := w.closedLoop(ctx, n, func(ctx context.Context, iso float32) (int, error) {
			res, err := eng.Extract(ctx, iso, cluster.Options{KeepMeshes: true})
			if err != nil {
				return 0, err
			}
			return res.Triangles, nil
		})
		if err != nil {
			return nil, err
		}
		st := srv.Stats()
		total := n * w.ReqPerClient
		row := ServingRow{
			Clients:          n,
			Requests:         total,
			ServedQPS:        float64(total) / servedWall.Seconds(),
			DirectQPS:        float64(total) / directWall.Seconds(),
			ServedMtriPerSec: float64(servedTris) / servedWall.Seconds() / 1e6,
			DirectMtriPerSec: float64(directTris) / directWall.Seconds() / 1e6,
			HitRate:          st.HitRate(),
			CacheHits:        st.CacheHits,
			Coalesced:        st.Coalesced,
			Extractions:      st.Extractions,
			P50:              lats.Quantile(0.50),
			P99:              lats.Quantile(0.99),
		}
		if row.DirectQPS > 0 {
			row.Speedup = row.ServedQPS / row.DirectQPS
		}
		rows = append(rows, row)
	}
	return rows, nil
}
