// Package dist is the sharded multi-replica serving tier: the layer that
// takes the single-process query service (internal/serve) and scales it
// *out*, the way the paper scales extraction across a cluster.
//
// Three pieces compose over real sockets:
//
//   - Replica: one shard — a serve.Server (request coalescing, mesh cache,
//     extraction admission) behind an HTTP endpoint that speaks the binary
//     mesh wire format (internal/meshio), sheds overload as
//     503 + Retry-After, and serves the observability surface
//     (/metrics, /statusz, /debug/pprof).
//   - Router: the shard-aware front end — consistent-hashes each
//     (time step, quantized isovalue) key to its home replica so every
//     replica's mesh cache stays hot on its own key range, fails over
//     along the hash ring on saturation or connect errors, and probes
//     /healthz to route around dead or draining replicas.
//   - StartCluster: spawns N replicas over one backend on loopback
//     listeners plus a router over them — the in-process simulated
//     cluster the scaling experiment, the tests, and
//     `isoserve -replicas N` all drive through real TCP.
//
// Failure semantics, end to end: a saturated replica answers 503 and the
// router tries the next replica on the ring (whose cache then warms the
// spilled keys — hot shards shed into their neighbors); a dead replica
// costs one connect error, is marked down, and is revived by the next
// successful health probe; a draining replica flips /healthz to 503,
// finishes its in-flight responses, and leaves the rotation without a
// single failed request.
package dist

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// NewHTTPServer wraps h in an http.Server hardened for untrusted networks:
// header/read/write/idle timeouts so a stalled or malicious peer cannot
// pin a connection (and its goroutine) forever. Every listener in the tier
// — replicas, routers, the isoserve metrics endpoint — goes through this
// constructor. The write timeout is generous because one response may
// carry a full-size extraction: queue wait + extraction + the write of a
// frame of tens of megabytes all happen before the body is done.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      4 * time.Minute,
		IdleTimeout:       90 * time.Second,
		MaxHeaderBytes:    1 << 16,
	}
}

// ClusterConfig sizes an in-process cluster: N replicas over one backend,
// loopback listeners, and a router in front.
type ClusterConfig struct {
	// Replicas is the shard count (0 = 1).
	Replicas int
	// Replica configures every replica identically. Serve.Metrics is
	// ignored: each replica gets its own registry (the serve metric names
	// are per-process).
	Replica ReplicaConfig
	// Router configures the front end; its Replicas field is filled in
	// with the spawned listeners' addresses.
	Router RouterConfig
}

// Cluster is a running in-process serving tier.
type Cluster struct {
	Replicas []*Replica
	Router   *Router
}

// StartCluster spawns cfg.Replicas replicas over backend on loopback
// listeners and a router across them. The backend is shared — replicas are
// separate serving processes in spirit but extract from one engine, the
// same single-host simulation the cluster package uses for nodes.
func StartCluster(backend serve.Backend, cfg ClusterConfig) (*Cluster, error) {
	n := cfg.Replicas
	if n <= 0 {
		n = 1
	}
	c := &Cluster{}
	for i := 0; i < n; i++ {
		scfg := cfg.Replica.Serve
		scfg.Metrics = obs.NewRegistry()
		rep := NewReplicaServer(serve.New(backend, scfg), cfg.Replica)
		if err := rep.Start("127.0.0.1:0"); err != nil {
			c.Close()
			return nil, fmt.Errorf("dist: starting replica %d: %w", i, err)
		}
		c.Replicas = append(c.Replicas, rep)
	}
	rcfg := cfg.Router
	rcfg.Replicas = make([]string, n)
	for i, rep := range c.Replicas {
		rcfg.Replicas[i] = rep.Addr()
	}
	rt, err := NewRouter(rcfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Router = rt
	return c, nil
}

// Stats snapshots every replica's query-service counters, in replica order.
func (c *Cluster) Stats() []serve.Stats {
	out := make([]serve.Stats, len(c.Replicas))
	for i, rep := range c.Replicas {
		out[i] = rep.Stats()
	}
	return out
}

// Drain gracefully drains one replica out of the rotation (see
// Replica.Drain); the router's probes stop routing to it within a probe
// interval.
func (c *Cluster) Drain(ctx context.Context, i int) error {
	return c.Replicas[i].Drain(ctx)
}

// Close hard-stops the router and every replica.
func (c *Cluster) Close() {
	if c.Router != nil {
		c.Router.Close()
	}
	for _, rep := range c.Replicas {
		rep.Close() //nolint:errcheck // teardown
	}
}
