package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
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

// ScalingRow reports one replica count of the scaling experiment.
type ScalingRow struct {
	Replicas int `col:"replicas"`
	Requests int `col:"reqs"` // total requests issued across all clients

	QPS        float64 `col:"q/s,%.1f"`
	Speedup    float64 `col:"speedup,%.2f×"` // QPS / the table's single-replica QPS (0 if no 1-replica row)
	MtriPerSec float64 `col:"Mtri/s,%.1f"`   // delivered geometry throughput, millions of triangles/s

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
	Retries   int64 `col:"retries"`   // client retries after every candidate replica shed

	P50 time.Duration `col:"p50"`
	P99 time.Duration `col:"p99"`
}

// ScalingTable runs the fixed Zipf workload (clients closed-loop clients)
// against an in-process cluster of 1, 2, ... replicas on loopback listeners,
// routed by consistent hashing. Each replica's responses are paced through a
// modeled NIC (rep.LinkBytesPerSec), so on a one-CPU test host the tier's
// measured capacity is the replicated link — the resource that actually
// multiplies with replica count — rather than the host's single core.
//
// Each row starts with an untimed warm pass that requests every isovalue
// level once, priming each level into its home shard's cache. The timed run
// then measures steady-state serving capacity; the one-off cold extractions
// are the same fixed cost at every replica count (one shared backend, one
// CPU) and would only blur the scaling signal. Reported stats are deltas
// over the timed run, so Extractions > 0 in a row means evictions or
// failover spill, not cold start.
//
// The per-replica queue is sized to the client population so the closed loop
// is never shed by extraction admission; the HTTP in-flight bound defaults to
// 2×clients/replicas so a hot shard (Zipf makes one inevitable) sheds its
// overflow to ring neighbors instead of queueing the whole population.
func ScalingTable(ctx context.Context, cfg RMConfig, procs int, replicaCounts []int, clients int, w ServingWorkload, rep dist.ReplicaConfig) ([]ScalingRow, error) {
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
		rcfg := rep
		if rcfg.Serve.QueueDepth == 0 {
			rcfg.Serve.QueueDepth = clients // never shed the closed loop at the extraction layer
		}
		if rcfg.MaxInFlight == 0 {
			// Give the tier exactly the client population's worth of in-flight
			// slots, split across replicas: a hot shard (Zipf makes one
			// inevitable) sheds its overflow to ring neighbors instead of
			// queueing the whole population behind its one link, while a
			// single replica — granted all the slots — never sheds its own
			// closed loop.
			rcfg.MaxInFlight = max(4, clients/n)
		}
		cl, err := dist.StartCluster(eng, dist.ClusterConfig{
			Replicas: n,
			Replica:  rcfg,
			// Home shard plus one ring successor: overflow from a hot shard
			// spills to a single standby, so each key's mesh lives in at most
			// two caches instead of roaming (and going cold) across the whole
			// ring.
			Router: dist.RouterConfig{Attempts: 2},
		})
		if err != nil {
			return nil, err
		}
		var retries atomic.Int64
		// fetch routes one query, honoring the tier's backpressure the way a
		// polite client would: on "every candidate shed" it backs off briefly
		// and re-asks. Retries are counted and the wall clock keeps running,
		// so shedding still costs the timed row its throughput.
		fetch := func(ctx context.Context, iso float32) (int, error) {
			for {
				frame, _, err := cl.Router.QueryBytes(ctx, 0, iso)
				if err == nil {
					_, nt, err := meshio.DecodeBinaryHeader(frame)
					cl.Router.Recycle(frame)
					return nt, err
				}
				if !errors.Is(err, serve.ErrSaturated) {
					return 0, err
				}
				retries.Add(1)
				// Well under a frame's transmit time, so a freed link slot is
				// claimed quickly without polling it to death.
				select {
				case <-time.After(5 * time.Millisecond):
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			}
		}
		if err := warmLevels(ctx, w, cl); err != nil {
			cl.Close()
			return nil, err
		}
		pre := cl.Stats()
		preRouter := cl.Router.Stats()
		retries.Store(0)

		wall, lats, tris, err := w.closedLoop(ctx, clients, fetch)
		stats := cl.Stats()
		rstats := cl.Router.Stats()
		cl.Close()
		if err != nil {
			return nil, err
		}

		total := clients * w.ReqPerClient
		row := ScalingRow{
			Replicas:   n,
			Requests:   total,
			QPS:        float64(total) / wall.Seconds(),
			MtriPerSec: float64(tris) / wall.Seconds() / 1e6,
			MinHitRate: 1,
			Failovers:  rstats.Failovers - preRouter.Failovers,
			Retries:    retries.Load(),
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
		if len(rows) > 0 && rows[0].Replicas == 1 && rows[0].QPS > 0 {
			row.Speedup = row.QPS / rows[0].QPS
		} else if n == 1 && len(rows) == 0 {
			row.Speedup = 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// warmLevels requests every isovalue level once from every replica the
// router may route it to — the home shard and the failover standby — so the
// timed run starts with each key's mesh cached everywhere its overflow can
// land. Eight at a time: enough to overlap the paced links without tripping a
// replica's in-flight bound.
func warmLevels(ctx context.Context, w ServingWorkload, cl *dist.Cluster) error {
	errs := make([]error, w.Levels)
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for rank, iso := range w.levels() {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			for _, ci := range cl.Router.Candidates(0, iso) {
				if err := fetchReplicaMesh(ctx, cl.Replicas[ci].Addr(), 0, iso); err != nil {
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

// fetchReplicaMesh pulls one mesh straight from a replica (bypassing the
// router), waiting out 503s — the warm pass must land every key, not shed it.
func fetchReplicaMesh(ctx context.Context, addr string, step int, iso float32) error {
	url := dist.MeshURL(addr, step, iso)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close() //nolint:errcheck
		switch {
		case resp.StatusCode == http.StatusOK:
			return cerr
		case resp.StatusCode == http.StatusServiceUnavailable:
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		default:
			return fmt.Errorf("harness: warming %s: %s", url, resp.Status)
		}
	}
}
