package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// ErrNoReplicas is returned when every candidate replica failed with a
// transport error or was known down — the tier is unreachable, as opposed
// to saturated (serve.ErrSaturated, which maps back to 503 + Retry-After).
var ErrNoReplicas = errors.New("dist: no replica available")

// RouterConfig sizes a front-end router.
type RouterConfig struct {
	// Replicas are the replica /mesh endpoints, as host:port addresses.
	// Ring position is index-based, so keep the order stable across
	// restarts or the shards (and their warmed caches) reshuffle.
	Replicas []string

	// Attempts bounds how many distinct replicas one request may try —
	// the home shard plus failovers along the ring (0 = all replicas).
	Attempts int

	// AttemptTimeout bounds one replica round trip, so a blackholed
	// connection costs one bounded attempt instead of the whole request
	// deadline (0 = 30s — generous because one legitimate attempt may wait
	// in the replica's admission queue and then extract a full-size surface
	// cold, which takes seconds).
	AttemptTimeout time.Duration

	// HedgeAfter launches a hedged copy of the first attempt to the ring
	// successor when the home shard has not answered within this duration;
	// the first result wins and cancels the other (0 = hedging off).
	HedgeAfter time.Duration

	// DownCooldown is how long a failed attempt (transport error, timeout or
	// corrupt frame) keeps a replica out of rotation; after it, requests try
	// the replica again and the first success puts it back (0 = 1s).
	DownCooldown time.Duration

	// Client overrides the HTTP client (nil = pooled keep-alive transport).
	Client *http.Client

	// Metrics receives the router's counters (nil = a private registry,
	// reachable via Router.Metrics).
	Metrics *obs.Registry
}

// backoffBase is the first saturation-backoff wait absent a Retry-After
// hint; it doubles each round.
const backoffBase = 25 * time.Millisecond

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Attempts <= 0 || c.Attempts > len(c.Replicas) {
		c.Attempts = len(c.Replicas)
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.DownCooldown <= 0 {
		c.DownCooldown = time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: NewTransport()}
	}
	return c
}

// NewTransport returns the pooled keep-alive transport the router uses by
// default — exported so chaos injectors and custom clients can wrap the
// same base instead of http.DefaultTransport.
func NewTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}
}

// SaturatedError reports that every candidate replica shed the request until
// the caller's deadline (or, with no deadline, on the one walk). It unwraps to serve.ErrSaturated and carries
// the replicas' soonest Retry-After hint so front ends can forward it.
type SaturatedError struct {
	Attempts   int           // replica round trips spent before giving up
	RetryAfter time.Duration // soonest hint the replicas offered (0 = none)
	Waited     time.Duration // total backoff slept before giving up
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("%v: all candidates shed the request (%d attempts, waited %v)",
		serve.ErrSaturated, e.Attempts, e.Waited.Round(time.Millisecond))
}

func (e *SaturatedError) Unwrap() error { return serve.ErrSaturated }

// RouterStats is a snapshot of the router's counters.
type RouterStats struct {
	Routed          int64 // requests answered with a mesh
	Failovers       int64 // requests answered after at least one failed attempt (a backoff round's included)
	Saturated       int64 // requests that found every candidate saturated
	Errors          int64 // requests that failed outright
	Retries         int64 // saturation-backoff rounds begun (counted before the sleep)
	Hedges          int64 // hedged attempts launched
	HedgeWins       int64 // hedged attempts that answered first
	CorruptFrames   int64 // frames rejected by checksum or structure
	AttemptTimeouts int64 // attempts cut off by AttemptTimeout
	Revived         int64 // down replicas revived by a passing request
	Down            []bool
	Served          []int64 // requests each replica answered, indexed like Down; sums to Routed
}

// Route reports how one request was served.
type Route struct {
	Replica int // index into RouterConfig.Replicas
	Addr    string
	Source  string // the replica's X-Iso-Source: cache, coalesced, extracted
	// Attempts counts the round trips that completed, over every backoff
	// round, the answer's included. 1 means nothing failed first, not that
	// the home shard answered: a hedge that won, or a successor tried before
	// a known-down home, also reads 1. A hedge's cancelled loser never
	// completes and is not counted.
	Attempts int
}

// Router is the shard-aware front end: it consistent-hashes each
// (time step, quantized isovalue) key to its home replica so every shard's
// mesh cache stays hot on its own key range, fails over along the hash
// ring when a replica is saturated (503) or unreachable, and judges each
// replica by its own requests' outcomes: a failed attempt benches it for
// DownCooldown, and a success after that puts it back. It owns no goroutine
// between requests.
//
// The request path is hardened against the faults internal/chaos injects:
// every attempt runs under AttemptTimeout, responses are checksum-verified
// (a corrupt frame retries on the ring successor), a slow home shard can be
// hedged to its successor, and saturation is retried until the caller's
// deadline honoring Retry-After.
type Router struct {
	cfg    RouterConfig
	ring   *ring
	health *health        // which replicas are in rotation (health.go)
	frames freeList       // buffers callers handed back (freelist.go)
	served []atomic.Int64 // requests answered per replica: how the ring split the load

	jmu    sync.Mutex
	jitter *rng.SplitMix64

	reg       *obs.Registry
	routed    *obs.Counter
	failovers *obs.Counter
	saturated *obs.Counter
	errorsC   *obs.Counter
	retries   *obs.Counter
	hedges    *obs.Counter
	hedgeWins *obs.Counter
	corrupt   *obs.Counter
	timeouts  *obs.Counter
	revived   *obs.Counter
	latency   *obs.Histogram
	frameRead *obs.Histogram
}

// NewRouter builds a router over the configured replicas. Close releases its
// idle connections.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("dist: router needs at least one replica")
	}
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rt := &Router{
		cfg:       cfg,
		ring:      newRing(len(cfg.Replicas)),
		health:    newHealth(len(cfg.Replicas), cfg.DownCooldown),
		served:    make([]atomic.Int64, len(cfg.Replicas)),
		jitter:    rng.New(0),
		reg:       reg,
		routed:    reg.Counter("router_routed_total", "requests answered with a mesh"),
		failovers: reg.Counter("router_failovers_total", "requests answered after at least one failed attempt"),
		saturated: reg.Counter("router_saturated_total", "requests that found every candidate saturated"),
		errorsC:   reg.Counter("router_errors_total", "requests that failed outright"),
		retries:   reg.Counter("router_retries_total", "saturation-backoff rounds begun (counted before the sleep)"),
		hedges:    reg.Counter("router_hedges_total", "hedged attempts launched"),
		hedgeWins: reg.Counter("router_hedge_wins_total", "hedged attempts that answered first"),
		corrupt:   reg.Counter("router_corrupt_frames_total", "frames rejected by checksum or structure"),
		timeouts:  reg.Counter("router_attempt_timeouts_total", "attempts cut off by the per-attempt timeout"),
		revived:   reg.Counter("router_revived_total", "down replicas revived by a passing request"),
		latency:   reg.Histogram("router_request_seconds", "end-to-end routed request latency"),
		frameRead: reg.Histogram("router_frame_read_seconds", "one replica response from status line to trailer compared: socket read and checksum, one pass"),
	}
	rt.frames.gauge(reg)
	reg.GaugeFunc("router_replicas_up", "replicas currently considered healthy", func() float64 {
		return float64(rt.health.up())
	})
	return rt, nil
}

// Close closes idle connections, whatever round trippers the client's
// transport is wrapped in (each forwards the call, or the connections stay
// pooled until the peer or the idle timer drops them). In-flight queries
// finish on their own.
func (rt *Router) Close() {
	rt.cfg.Client.CloseIdleConnections()
}

// Stats snapshots the router's counters and health view.
func (rt *Router) Stats() RouterStats {
	st := RouterStats{
		Routed:          rt.routed.Value(),
		Failovers:       rt.failovers.Value(),
		Saturated:       rt.saturated.Value(),
		Errors:          rt.errorsC.Value(),
		Retries:         rt.retries.Value(),
		Hedges:          rt.hedges.Value(),
		HedgeWins:       rt.hedgeWins.Value(),
		CorruptFrames:   rt.corrupt.Value(),
		AttemptTimeouts: rt.timeouts.Value(),
		Revived:         rt.revived.Value(),
		Down:            make([]bool, len(rt.served)),
		Served:          make([]int64, len(rt.served)),
	}
	for i := range rt.served {
		st.Down[i] = rt.health.isDown(i)
		st.Served[i] = rt.served[i].Load()
	}
	return st
}

// Response is a routed query result. Mesh is the replica's frame decoded
// into a soup of the caller's own, which nothing else references; the frame
// has already gone back to the router.
type Response struct {
	Mesh  *geom.Mesh
	Iso   float32 // the quantized isovalue the shard extracted
	Route Route
}

// Query routes one query, decodes the returned frame into a fresh soup and
// recycles the frame at once. fetch has already checksummed the frame as it
// came off the socket, so the CRC runs exactly once per routed frame: there,
// not here (meshio.DecodeVerified).
func (rt *Router) Query(ctx context.Context, step int, iso float32) (*Response, error) {
	frame, route, err := rt.QueryBytes(ctx, step, iso)
	if err != nil {
		return nil, err
	}
	mesh, qiso, err := meshio.DecodeVerified(frame)
	rt.Recycle(frame)
	if err != nil {
		return nil, fmt.Errorf("dist: replica %s returned a bad frame: %w", route.Addr, err)
	}
	return &Response{Mesh: mesh, Iso: qiso, Route: route}, nil
}

// Recycle hands back a frame QueryBytes returned, once the caller is done
// with every byte of it: a later fetch reads its frame into the same memory
// instead of allocating (and zeroing, and faulting in) its own. Optional, and
// the only way a buffer returns — the router never reuses a frame a caller
// still holds. The caller must not touch frame afterwards.
func (rt *Router) Recycle(frame []byte) { rt.frames.put(frame) }
