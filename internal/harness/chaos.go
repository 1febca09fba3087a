package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ---------------------------------------------------------------------------
// Chaos experiment: availability, error rate, and tail latency of the
// sharded tier under injected faults, seen through the router and — the
// control — by a naive client the router does not protect. Each scenario pins
// one replica with a fault plan from internal/chaos and replays the same Zipf
// workload twice; correctness is checked byte-for-byte against fault-free
// reference frames.

// ChaosScenario names one fault plan, applied for the whole timed run to
// the replica that is home to the workload's hottest key.
type ChaosScenario struct {
	Name  string
	Fault chaos.Fault
}

// DefaultChaosScenarios covers the fault classes the chaos layer injects,
// one at a time and then combined ("mixed" is the CI acceptance scenario:
// added latency, 1-in-8 connection drops, and frame corruption at once).
func DefaultChaosScenarios() []ChaosScenario {
	return []ChaosScenario{
		{Name: "fault-free", Fault: chaos.Fault{}},
		{Name: "slow", Fault: chaos.Fault{Latency: time.Second}},
		{Name: "drops", Fault: chaos.Fault{DropProb: 0.125}},
		{Name: "corrupt", Fault: chaos.Fault{CorruptProb: 0.25}},
		{Name: "blackhole", Fault: chaos.Fault{BlackholeProb: 0.125}},
		{Name: "mixed", Fault: chaos.Fault{Latency: 20 * time.Millisecond, DropProb: 0.125, CorruptProb: 0.25}},
	}
}

// ChaosRow reports one (scenario, client) cell of the chaos experiment.
type ChaosRow struct {
	Scenario string `col:"scenario"`
	Client   string `col:"client"` // "resilient" (through the router) or "naive" (the control)
	Requests int    `col:"reqs"`
	// Injected counts what the fault plan actually did to the row's
	// exchanges: a row that shows no damage under a plan that never fired
	// proves nothing.
	Injected   int64 `col:"injected"`
	Failed     int   `col:"failed"`      // requests that returned an error
	Mismatched int   `col:"corruptions"` // requests that returned bytes differing from the reference

	Availability float64       `col:"avail,%.1f%%"` // correct responses / requests
	P50          time.Duration `col:"p50"`
	P99          time.Duration `col:"p99"`
	P99Ratio     float64       `col:"p99 vs base,%.1f×"` // P99 / the fault-free resilient row's P99 (0 until known)

	// The router's accounting of the timed run — the warm pass goes to the
	// replicas directly — all zero on a naive row, none of whose requests
	// passes through it. Hedges reads "launched (won)".
	Failovers int64  `col:"failovers"`
	Hedges    string `col:"hedges (won)"`
	Retries   int64  `col:"retries"`
	Timeouts  int64  `col:"timeouts"`
	Revived   int64  `col:"revived"`
}

// ChaosConfig sizes the chaos experiment.
type ChaosConfig struct {
	Replicas       int           // tier size (0 = 3)
	Clients        int           // closed-loop clients (0 = 4)
	RequestTimeout time.Duration // per-request deadline (0 = 8s)
	Seed           uint64        // injector seed base
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 8 * time.Second
	}
	return c
}

// resilientRouter is the hardened configuration under test: bounded
// attempts, early hedging, saturation retries within the request deadline,
// passive revival, verified frames.
func resilientRouter(client *http.Client) dist.RouterConfig {
	// The timeouts are generous: a warm cache hit on the experiment grids
	// can cost hundreds of milliseconds under the race detector, and a
	// too-eager AttemptTimeout turns the resilient rows into self-inflicted
	// failures. Blackholed attempts are still covered well before the
	// timeout by the hedge.
	return dist.RouterConfig{
		Client:         client,
		AttemptTimeout: 2 * time.Second,
		HedgeAfter:     300 * time.Millisecond,
		DownCooldown:   250 * time.Millisecond,
	}
}

// naiveFetch is the control: a plain GET of the mesh from one replica through
// the same faulted client, the body taken as it comes — what the faults do to
// a client with no timeout of its own, no second replica to turn to and no
// checksum to look at.
func naiveFetch(ctx context.Context, client *http.Client, addr string, iso float32) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, dist.MeshURL(addr, 0, iso), nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("harness: %s from %s", resp.Status, addr)
	}
	return io.ReadAll(resp.Body)
}

// ChaosTable runs every scenario twice — through the resilient router, then
// as the naive client — against a fresh cluster each time, and reports
// availability, correctness, and tail latency. Rows are ordered
// scenario-major with the resilient run first.
func ChaosTable(ctx context.Context, cfg RMConfig, procs int, ccfg ChaosConfig, w ServingWorkload, scenarios []ChaosScenario) ([]ChaosRow, error) {
	w = w.withDefaults()
	ccfg = ccfg.withDefaults()
	eng, err := Engine(cfg, procs)
	if err != nil {
		return nil, err
	}

	// Fault-free reference frames, one per isovalue level, fetched through a
	// plain router: the bytes every faulted run must still deliver.
	refs, err := referenceFrames(ctx, eng, w)
	if err != nil {
		return nil, err
	}

	var rows []ChaosRow
	var baselineP99 time.Duration
	for _, sc := range scenarios {
		for _, client := range []string{"resilient", "naive"} {
			row, err := chaosRow(ctx, eng, ccfg, w, sc, client, refs)
			if err != nil {
				return nil, fmt.Errorf("harness: chaos scenario %q (%s client): %w", sc.Name, client, err)
			}
			if client == "resilient" && sc.Name == "fault-free" && row.P99 > 0 {
				baselineP99 = row.P99
			}
			rows = append(rows, row)
		}
	}
	if baselineP99 > 0 {
		for i := range rows {
			rows[i].P99Ratio = float64(rows[i].P99) / float64(baselineP99)
		}
	}
	return rows, nil
}

// referenceFrames extracts each workload level once through an unfaulted
// single-replica tier and returns the frames keyed by isovalue bits.
func referenceFrames(ctx context.Context, backend serve.Backend, w ServingWorkload) (map[uint32][]byte, error) {
	cl, err := dist.StartCluster(backend, dist.ClusterConfig{Replicas: 1})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	refs := make(map[uint32][]byte, w.Levels)
	for _, iso := range w.levels() {
		frame, _, err := cl.Router.QueryBytes(ctx, 0, iso)
		if err != nil {
			return nil, fmt.Errorf("harness: reference frame for iso %v: %w", iso, err)
		}
		refs[math.Float32bits(iso)] = frame
	}
	return refs, nil
}

// errMismatch marks a response that arrived but differs from its reference.
var errMismatch = errors.New("harness: frame differs from the fault-free reference")

func chaosRow(ctx context.Context, backend serve.Backend, ccfg ChaosConfig, w ServingWorkload, sc ChaosScenario, client string, refs map[uint32][]byte) (ChaosRow, error) {
	in := chaos.NewInjector(ccfg.Seed + 1)
	faulted := &http.Client{Transport: in.Transport(dist.NewTransport())}
	cl, err := dist.StartCluster(backend, dist.ClusterConfig{
		Replicas: ccfg.Replicas,
		Replica:  dist.ReplicaConfig{Serve: serve.Config{QueueDepth: ccfg.Clients}},
		Router:   resilientRouter(faulted),
	})
	if err != nil {
		return ChaosRow{}, err
	}
	defer cl.Close()

	// Warm every candidate cache before the fault lands, as ScalingTable
	// does: the experiment measures the request path under faults, not cold
	// extraction noise.
	if err := warmLevels(ctx, w, cl); err != nil {
		return ChaosRow{}, err
	}
	// Fault the home shard of the workload's hottest key (Zipf rank 0), so
	// the faulted replica actually sees the bulk of the traffic — faulting a
	// fixed index can land on a shard the skewed workload barely touches.
	victim := cl.Router.HomeReplica(0, w.levels()[0])
	in.SetFault(cl.Replicas[victim].Addr(), sc.Fault)

	var failed, mismatched atomic.Int64
	lat := obs.NewHistogram()
	w.Drive(ctx, Load{Clients: ccfg.Clients},
		func(ctx context.Context, _ int, iso float32) error {
			qctx, cancel := context.WithTimeout(ctx, ccfg.RequestTimeout)
			defer cancel()
			var frame []byte
			var err error
			if client == "resilient" {
				frame, _, err = cl.Router.QueryBytes(qctx, 0, iso)
				defer cl.Router.Recycle(frame)
			} else {
				// The router is asked where the key lives and nothing more.
				frame, err = naiveFetch(qctx, faulted, cl.Replicas[cl.Router.HomeReplica(0, iso)].Addr(), iso)
			}
			if err != nil {
				return err
			}
			if !bytes.Equal(frame, refs[math.Float32bits(iso)]) {
				return errMismatch
			}
			return nil
		},
		func(d time.Duration, err error) {
			lat.Observe(d)
			switch {
			case errors.Is(err, errMismatch):
				mismatched.Add(1)
			case err != nil:
				failed.Add(1)
			}
		})
	if err := ctx.Err(); err != nil {
		return ChaosRow{}, err
	}

	total := ccfg.Clients * w.ReqPerClient
	rs := cl.Router.Stats()
	row := ChaosRow{
		Scenario:   sc.Name,
		Client:     client,
		Requests:   total,
		Injected:   in.Stats().Total(), // no fault was set before the timed run
		Failed:     int(failed.Load()),
		Mismatched: int(mismatched.Load()),
		P50:        lat.Quantile(0.50),
		P99:        lat.Quantile(0.99),
		Failovers:  rs.Failovers,
		Hedges:     fmt.Sprintf("%d (%d)", rs.Hedges, rs.HedgeWins),
		Retries:    rs.Retries,
		Timeouts:   rs.AttemptTimeouts,
		Revived:    rs.Revived,
	}
	row.Availability = float64(total-row.Failed-row.Mismatched) / float64(total)
	return row, nil
}
