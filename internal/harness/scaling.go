package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/meshio"
	"repro/internal/serve"
)

// ---------------------------------------------------------------------------
// Scaling experiment: aggregate throughput and cache locality vs replica
// count, at a fixed Zipf client population driven through the sharded tier
// over real loopback sockets.

// linkBytesPerSec is the modeled NIC of one replica machine: ~200 Mbit,
// era-plausible cluster networking, standing in for the network the way
// DESIGN.md §2's DiskModel stands in for the paper's disks.
const linkBytesPerSec = 25e6

// ScalingRow reports one replica count of the scaling experiment. The host
// columns are measured wall time; the link columns are modeled from bytes.
// No column adds the one to the other.
type ScalingRow struct {
	Replicas int `col:"replicas"`
	Requests int `col:"reqs"` // total requests issued across all clients

	QPS        float64 `col:"host q/s,%.1f"`
	Speedup    float64 `col:"host speedup,%.2f×"` // QPS / the table's single-replica QPS (0 if no 1-replica row)
	MtriPerSec float64 `col:"host Mtri/s,%.1f"`   // delivered geometry throughput, millions of triangles/s

	// LinkQPS is requests ÷ the busiest replica's modeled transmit time: its
	// frame bytes over the timed run ÷ linkBytesPerSec. The replicas' links
	// run in parallel, so the one that carried the most bytes sets the run's
	// modeled length.
	LinkQPS     float64 `col:"link q/s,%.1f"`
	LinkSpeedup float64 `col:"link speedup,%.2f×"` // LinkQPS / the single-replica row's (0 if no 1-replica row)

	// AggHitRate is (cache hits + coalesced) / requests summed over every
	// replica; MinHitRate / MaxHitRate are the extremes across individual
	// replicas — the shard-locality check. Sharding by key means each
	// replica's cache sees only its own key range, so per-replica hit rates
	// should track the single-replica run, not degrade with N.
	AggHitRate  float64 `col:"agg hit,%.0f%%"`
	MinHitRate  float64 `col:"min hit,%.0f%%"`
	MaxHitRate  float64 `col:"max hit,%.0f%%"`
	Extractions int64   `col:"extractions"` // backend extractions summed over replicas

	Failovers int64 `col:"failovers"` // requests the router moved to a ring successor

	P50 time.Duration `col:"host p50"`
	P99 time.Duration `col:"host p99"`
}

// ScalingTable runs the fixed Zipf workload (clients closed-loop clients)
// against an in-process cluster of 1, 2, ... replicas on loopback listeners,
// routed by consistent hashing, and reports each row twice over. The host
// columns are the timed run's wall time: every replica shares this host's
// cores, so they say what one host can do, not what N machines could. The
// link columns are modeled the way IOModelTime is (DESIGN.md §2): each
// replica's NIC sends the frame bytes it served at linkBytesPerSec.
//
// Both admission bounds admit the whole client population, so nothing is
// shed: every request goes to its home shard, and the link columns depend
// on the workload and the ring alone, identical from run to run.
//
// Each row starts with an untimed warm pass that extracts every isovalue
// level once, priming each level into its home shard's cache. The timed run
// then measures steady-state serving capacity; the one-off cold extractions
// are the same fixed cost at every replica count (one shared backend) and
// would only blur the scaling signal. Reported stats are deltas over the
// timed run, so Extractions > 0 in a row means evictions, not cold start.
func ScalingTable(ctx context.Context, cfg RMConfig, procs int, replicaCounts []int, clients int, w ServingWorkload) ([]ScalingRow, error) {
	w = w.withDefaults()
	if clients < 1 {
		return nil, fmt.Errorf("harness: client count must be ≥ 1, got %d", clients)
	}
	eng, err := Engine(cfg, procs)
	if err != nil {
		return nil, err
	}
	var rows []ScalingRow
	for _, n := range replicaCounts {
		if n < 1 {
			return nil, fmt.Errorf("harness: replica count must be ≥ 1, got %d", n)
		}
		cl, err := dist.StartCluster(eng, dist.ClusterConfig{
			Replicas: n,
			Replica:  dist.ReplicaConfig{MaxInFlight: clients, Serve: serve.Config{QueueDepth: clients}},
			// Home shard plus one ring successor: the warm pass fills two
			// caches per key, not every replica's.
			Router: dist.RouterConfig{Attempts: 2},
		})
		if err != nil {
			return nil, err
		}
		if err := warmLevels(ctx, w, cl); err != nil {
			cl.Close()
			return nil, err
		}
		pre := cl.Stats()
		preRouter := cl.Router.Stats()

		frameBytes := make([]atomic.Int64, n) // per replica, timed run only
		fetch := func(ctx context.Context, iso float32) (int, error) {
			frame, route, err := cl.Router.QueryBytes(ctx, 0, iso)
			if err != nil {
				return 0, err
			}
			frameBytes[route.Replica].Add(int64(len(frame)))
			_, nt, err := meshio.DecodeBinaryHeader(frame)
			cl.Router.Recycle(frame)
			return nt, err
		}
		wall, lats, tris, err := w.closedLoop(ctx, clients, fetch)
		stats := cl.Stats()
		rstats := cl.Router.Stats()
		cl.Close()
		if err != nil {
			return nil, err
		}

		total := clients * w.ReqPerClient
		var busiest int64
		for i := range frameBytes {
			busiest = max(busiest, frameBytes[i].Load())
		}
		row := ScalingRow{
			Replicas:   n,
			Requests:   total,
			QPS:        float64(total) / wall.Seconds(),
			MtriPerSec: float64(tris) / wall.Seconds() / 1e6,
			LinkQPS:    float64(total) / (float64(busiest) / linkBytesPerSec),
			MinHitRate: 1,
			Failovers:  rstats.Failovers - preRouter.Failovers,
			P50:        lats.Quantile(0.50),
			P99:        lats.Quantile(0.99),
		}
		var reqs, served int64
		for i, st := range stats {
			st.Requests -= pre[i].Requests
			st.CacheHits -= pre[i].CacheHits
			st.Coalesced -= pre[i].Coalesced
			st.Extractions -= pre[i].Extractions
			reqs += st.Requests
			served += st.CacheHits + st.Coalesced
			row.Extractions += st.Extractions
			if st.Requests == 0 {
				continue // an idle replica has no hit rate to report
			}
			hr := st.HitRate()
			row.MinHitRate = min(row.MinHitRate, hr)
			row.MaxHitRate = max(row.MaxHitRate, hr)
		}
		if reqs > 0 {
			row.AggHitRate = float64(served) / float64(reqs)
		}
		rows = append(rows, row)
	}
	if len(rows) > 0 && rows[0].Replicas == 1 {
		base := rows[0]
		for i := range rows {
			rows[i].Speedup = rows[i].QPS / base.QPS
			rows[i].LinkSpeedup = rows[i].LinkQPS / base.LinkQPS
		}
	}
	return rows, nil
}

// warmLevels extracts every isovalue level once on every replica the router
// may route it to — the home shard and its standbys — in process, through
// each replica's own frame lookup, which is what an HTTP request for it
// runs. The timed run then starts with each key's mesh
// cached everywhere a request for it can land. Two at a time, serve's
// default extraction slots, so a warm never queues for a slot.
func warmLevels(ctx context.Context, w ServingWorkload, cl *dist.Cluster) error {
	errs := make([]error, w.Levels)
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for rank, iso := range w.levels() {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			for _, ci := range cl.Router.Candidates(0, iso) {
				if _, err := cl.Replicas[ci].Server().QueryFrame(ctx, 0, iso); err != nil {
					errs[rank] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("harness: warming level rank %d: %w", rank, err)
		}
	}
	return nil
}
