package harness

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"text/tabwriter"
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
	Clients  int
	Requests int // total requests issued across all clients

	ServedQPS float64
	DirectQPS float64
	Speedup   float64 // ServedQPS / DirectQPS

	// Delivered geometry throughput (millions of triangles per second):
	// every request counts its result's triangles whether extracted fresh,
	// coalesced onto a neighbor, or served from cache, so cheaper cache
	// misses show up here even when the hit rate is unchanged.
	ServedMtriPerSec float64
	DirectMtriPerSec float64

	HitRate     float64 // (cache hits + coalesced) / requests
	CacheHits   int64
	Coalesced   int64
	Extractions int64

	P50, P99 time.Duration // served per-request latency percentiles
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
		srv := serve.NewServer(eng, c)
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

// PrintServingTable emits the serving experiment in the repo's table style.
func PrintServingTable(out io.Writer, procs int, w ServingWorkload, rows []ServingRow) {
	ww := w.withDefaults()
	fmt.Fprintf(out, "closed-loop clients, Zipf(%.2g) over %d isovalue levels, %d requests/client, %d nodes\n",
		ww.ZipfS, ww.Levels, ww.ReqPerClient, procs)
	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "clients\treqs\tserved q/s\tdirect q/s\tspeedup\tserved Mtri/s\tdirect Mtri/s\thit rate\thits\tcoalesced\textractions\tp50\tp99\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.1f\t%.1f\t%.1f×\t%.1f\t%.1f\t%.0f%%\t%d\t%d\t%d\t%s\t%s\t\n",
			r.Clients, r.Requests, r.ServedQPS, r.DirectQPS, r.Speedup,
			r.ServedMtriPerSec, r.DirectMtriPerSec,
			100*r.HitRate, r.CacheHits, r.Coalesced, r.Extractions,
			fmtDur(r.P50), fmtDur(r.P99))
	}
	tw.Flush()
}
