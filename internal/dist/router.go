package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
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

	// IsoQuantum must match the replicas' serve.Config.IsoQuantum: the
	// router hashes the quantized bucket, so every request a replica would
	// coalesce or cache together lands on the same shard (0 = 1).
	IsoQuantum float32

	// Attempts bounds how many distinct replicas one request may try —
	// the home shard plus failovers along the ring (0 = all replicas).
	Attempts int

	// ProbeInterval is the health-probe period (0 = 250ms; negative
	// disables background probing — replicas are then marked down by
	// transport errors and revived passively once DownCooldown elapses).
	ProbeInterval time.Duration

	// AttemptTimeout bounds one replica round trip, so a blackholed
	// connection costs one bounded attempt instead of the whole request
	// deadline (0 = 30s — generous because paced replica links legitimately
	// stream large frames for seconds; negative disables the bound).
	AttemptTimeout time.Duration

	// HedgeAfter launches a hedged copy of the first attempt to the ring
	// successor when the home shard has not answered within this duration;
	// the first result wins and cancels the other (0 = hedging off).
	HedgeAfter time.Duration

	// SaturationBudget keeps retrying a fully saturated candidate set —
	// honoring the replicas' Retry-After hints, with jittered exponential
	// backoff between rounds — for up to this long, bounded also by the
	// caller's context deadline (0 = give up immediately, the pre-resilience
	// behavior).
	SaturationBudget time.Duration

	// DownCooldown is how long a transport error keeps a replica out of
	// rotation before requests passively retry it. This revives marked-down
	// replicas even with probing disabled (0 = 1s; negative restores the
	// old strand-until-probed behavior).
	DownCooldown time.Duration

	// DisableVerify skips frame checksum verification on routed responses,
	// letting corrupted payloads through to the client (for chaos-harness
	// baselines; leave off in production).
	DisableVerify bool

	// Client overrides the HTTP client (nil = pooled keep-alive transport).
	Client *http.Client

	// Metrics receives the router's counters (nil = a private registry,
	// reachable via Router.Metrics).
	Metrics *obs.Registry
}

// Fixed sizing no caller has needed to vary.
const (
	probeTimeout = time.Second           // bound on one /healthz round trip
	backoffBase  = 25 * time.Millisecond // first saturation-backoff wait absent a Retry-After hint; doubles each round

	// The free list of recycled frame buffers holds at most this many bytes
	// of capacity in at most this many buffers: eight callers' worth of
	// 32 MB frames, and a scan short enough to do under a mutex.
	freeFrameBytes = 256 << 20
	freeFrameSlots = 16
)

func (c RouterConfig) withDefaults() RouterConfig {
	if c.IsoQuantum <= 0 {
		c.IsoQuantum = 1
	}
	if c.Attempts <= 0 || c.Attempts > len(c.Replicas) {
		c.Attempts = len(c.Replicas)
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.DownCooldown == 0 {
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

// SaturatedError reports that every candidate replica shed the request for
// the whole saturation budget. It unwraps to serve.ErrSaturated and carries
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
	Failovers       int64 // attempts moved to a ring successor (503 or transport error)
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
	Replica  int // index into RouterConfig.Replicas
	Addr     string
	Source   string // the replica's X-Iso-Source: cache, coalesced, extracted
	Attempts int    // 1 = served by its home shard
}

// Router is the shard-aware front end: it consistent-hashes each
// (time step, quantized isovalue) key to its home replica so every shard's
// mesh cache stays hot on its own key range, fails over along the hash
// ring when a replica is saturated (503) or unreachable, and probes
// /healthz to keep routing around dead or draining replicas.
//
// The request path is hardened against the faults internal/chaos injects:
// every attempt runs under AttemptTimeout, responses are checksum-verified
// (a corrupt frame retries on the ring successor), a slow home shard can be
// hedged to its successor, saturation is retried within SaturationBudget
// honoring Retry-After, and marked-down replicas rejoin rotation after
// DownCooldown even with probing off.
type Router struct {
	cfg    RouterConfig
	ring   *ring
	down   []atomic.Bool
	downAt []atomic.Int64 // unix nanos of the last markDown, for DownCooldown
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

	// Frame buffers handed back by Recycle, for fetch to read the next
	// frames into. Deliberately not a sync.Pool: a GC would empty it, and
	// the point is a steady state that allocates nothing.
	fmu       sync.Mutex
	free      [][]byte
	freeBytes int // sum of cap over free

	stopProbe context.CancelFunc
	probeDone chan struct{}
}

// NewRouter builds a router over the configured replicas and starts its
// health probes. Close releases them.
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
		down:      make([]atomic.Bool, len(cfg.Replicas)),
		downAt:    make([]atomic.Int64, len(cfg.Replicas)),
		served:    make([]atomic.Int64, len(cfg.Replicas)),
		jitter:    rng.New(0),
		reg:       reg,
		routed:    reg.Counter("router_routed_total", "requests answered with a mesh"),
		failovers: reg.Counter("router_failovers_total", "attempts moved to a ring successor"),
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
	reg.GaugeFunc("router_free_frames_bytes", "capacity of recycled frame buffers waiting for the next fetch", func() float64 {
		rt.fmu.Lock()
		defer rt.fmu.Unlock()
		return float64(rt.freeBytes)
	})
	reg.GaugeFunc("router_replicas_up", "replicas currently considered healthy", func() float64 {
		up := 0
		for i := range rt.down {
			if !rt.isDown(i) {
				up++
			}
		}
		return float64(up)
	})
	if cfg.ProbeInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		rt.stopProbe = cancel
		rt.probeDone = make(chan struct{})
		go rt.probeLoop(ctx)
	}
	return rt, nil
}

// Close stops the health probes and idle connections. In-flight queries
// finish on their own.
func (rt *Router) Close() {
	if rt.stopProbe != nil {
		rt.stopProbe()
		<-rt.probeDone
	}
	if t, ok := rt.cfg.Client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
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
		Down:            make([]bool, len(rt.down)),
		Served:          make([]int64, len(rt.down)),
	}
	for i := range rt.down {
		st.Down[i] = rt.isDown(i)
		st.Served[i] = rt.served[i].Load()
	}
	return st
}

// markDown takes a replica out of rotation and stamps the cooldown clock.
func (rt *Router) markDown(ri int) {
	rt.downAt[ri].Store(time.Now().UnixNano())
	rt.down[ri].Store(true)
}

// isDown reports whether a replica should be skipped: marked down and still
// inside DownCooldown. Once the cooldown elapses requests retry it — a
// success flips it back up (Revived), a failure re-stamps the clock.
func (rt *Router) isDown(ri int) bool {
	if !rt.down[ri].Load() {
		return false
	}
	cd := rt.cfg.DownCooldown
	if cd < 0 {
		return true
	}
	return time.Since(time.Unix(0, rt.downAt[ri].Load())) < cd
}

// KeyFor returns the shard key a query maps to (mirrors serve.KeyFor).
func (rt *Router) KeyFor(step int, iso float32) serve.Key {
	return serve.Key{Step: step, Bucket: int64(math.Round(float64(iso) / float64(rt.cfg.IsoQuantum)))}
}

// HomeReplica returns the replica index that owns a query's shard — the
// first attempt of every routed request (exposed for tests and rebalancing
// math).
func (rt *Router) HomeReplica(step int, iso float32) int {
	key := rt.KeyFor(step, iso)
	ord := rt.ring.order(keyHash(key.Step, key.Bucket), nil)
	return ord[0]
}

// Candidates returns the replicas a query may be served by, in failover
// order: the home shard first, then the ring successors Attempts allows.
// Exposed so operators (and the scaling harness) can pre-warm every cache a
// key's overflow can spill into.
func (rt *Router) Candidates(step int, iso float32) []int {
	key := rt.KeyFor(step, iso)
	order := rt.ring.order(keyHash(key.Step, key.Bucket), nil)
	if len(order) > rt.cfg.Attempts {
		order = order[:rt.cfg.Attempts]
	}
	return order
}

// candidates orders this request's replicas: healthy first, in ring order;
// known-down ones after, so a stale all-down health view degrades to
// trying, not failing. Each replica's health is read once: isDown moves with
// the clock and the probe loop, and a second look could list a replica twice
// or not at all.
func (rt *Router) candidates(step int, iso float32) []int {
	key := rt.KeyFor(step, iso)
	order := rt.ring.order(keyHash(key.Step, key.Bucket), make([]int, 0, rt.ring.n))
	if len(order) > rt.cfg.Attempts {
		order = order[:rt.cfg.Attempts]
	}
	cands := make([]int, 0, len(order))
	var down []int
	for _, ri := range order {
		if rt.isDown(ri) {
			down = append(down, ri)
		} else {
			cands = append(cands, ri)
		}
	}
	return append(cands, down...)
}

// QueryBytes routes one query and returns the raw mesh frame — the relay
// path (Handler) and accounting-only callers use it to skip the decode. The
// frame is the caller's; a caller that is done with it may Recycle it.
func (rt *Router) QueryBytes(ctx context.Context, step int, iso float32) ([]byte, Route, error) {
	start := time.Now()
	var (
		attempts int // replica round trips across all rounds
		backoff  = backoffBase
		waited   time.Duration // total saturation backoff slept
	)
	// A saturation budget of zero means one pass and give up; otherwise
	// rounds of pass → backoff continue until the budget (or the caller's
	// deadline, whichever is sooner) runs out.
	var budgetEnd time.Time
	if rt.cfg.SaturationBudget > 0 {
		budgetEnd = start.Add(rt.cfg.SaturationBudget)
		if d, ok := ctx.Deadline(); ok && d.Before(budgetEnd) {
			budgetEnd = d
		}
	}
	for {
		out := rt.pass(ctx, start, rt.candidates(step, iso), step, iso, &attempts)
		if out.err == nil {
			return out.frame, out.route, nil
		}
		if out.final {
			return nil, out.route, out.err
		}
		// Every candidate shed the request. Sleep out the replicas' hint
		// (or our own growing backoff) and try again if budget remains.
		wait := out.hint
		if wait <= 0 {
			wait = backoff
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		wait = rt.jittered(wait)
		// The hint is advisory: when it reaches past the budget, clamp and
		// make one last-chance pass at the deadline's edge instead of
		// abandoning a request we were told to keep trying.
		remaining := time.Until(budgetEnd)
		if budgetEnd.IsZero() || remaining <= 0 {
			rt.saturated.Inc()
			return nil, out.route, &SaturatedError{Attempts: attempts, RetryAfter: out.hint, Waited: waited}
		}
		if wait > remaining {
			wait = remaining
		}
		// Counted on committing to the sleep, not after it: a clamped wait
		// ends at the caller's deadline, where the timer and ctx.Done race.
		rt.retries.Inc()
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, out.route, ctx.Err()
		case <-timer.C:
		}
		waited += wait
	}
}

// jittered spreads a wait over [w/2, 3w/2) so synchronized callers don't
// retry in lockstep against the replica that just shed them.
func (rt *Router) jittered(w time.Duration) time.Duration {
	rt.jmu.Lock()
	f := rt.jitter.Float64()
	rt.jmu.Unlock()
	return w/2 + time.Duration(f*float64(w))
}

// passResult is one full walk over a request's candidate list.
type passResult struct {
	frame []byte
	route Route
	hint  time.Duration // soonest Retry-After among shedding replicas
	err   error
	final bool // err must not be retried (definitive failure or ctx done)
}

// fres is one replica attempt's outcome.
type fres struct {
	ri    int
	frame []byte
	src   string
	hint  time.Duration
	err   error
}

func (rt *Router) pass(ctx context.Context, start time.Time, cands []int, step int, iso float32, attempts *int) passResult {
	var (
		res     passResult
		sawShed bool
		lastErr error
	)
	// classify folds one failed attempt into the pass state; a non-nil
	// return aborts the whole request.
	classify := func(f fres) *passResult {
		lastErr = f.err
		if errors.Is(f.err, serve.ErrSaturated) {
			sawShed = true // busy, not dead: keep it in rotation
			if f.hint > 0 && (res.hint == 0 || f.hint < res.hint) {
				res.hint = f.hint
			}
			return nil
		}
		if errors.Is(f.err, errReplicaFailed) {
			// 4xx/5xx with the replica alive and responding: not routable
			// around, the request itself is at fault.
			rt.errorsC.Inc()
			return &passResult{route: res.route, err: f.err, final: true}
		}
		if err := ctx.Err(); err != nil {
			return &passResult{route: res.route, err: err, final: true}
		}
		rt.markDown(f.ri) // transport error, timeout, or corrupt frame: cool it down
		return nil
	}
	serveFrom := func(win fres) passResult {
		rt.routed.Inc()
		rt.served[win.ri].Add(1)
		rt.latency.Observe(time.Since(start))
		if rt.down[win.ri].CompareAndSwap(true, false) {
			rt.revived.Inc()
		}
		if *attempts > 1 {
			rt.failovers.Inc()
		}
		return passResult{
			frame: win.frame,
			route: Route{Replica: win.ri, Addr: rt.cfg.Replicas[win.ri], Source: win.src, Attempts: *attempts},
		}
	}

	i := 0
	for i < len(cands) {
		if err := ctx.Err(); err != nil {
			return passResult{err: err, final: true}
		}
		if i == 0 && rt.cfg.HedgeAfter > 0 && len(cands) > 1 {
			win, failed := rt.hedgedFetch(ctx, cands[0], cands[1], step, iso)
			*attempts += len(failed)
			if win != nil {
				*attempts++
			}
			for _, f := range failed {
				if abort := classify(f); abort != nil {
					return *abort
				}
			}
			if win != nil {
				return serveFrom(*win)
			}
			// Every launched attempt failed; skip the candidates we tried.
			i = len(failed)
			continue
		}
		ri := cands[i]
		i++
		*attempts++
		f := rt.fetch(ctx, ri, step, iso)
		if f.err == nil {
			return serveFrom(f)
		}
		if abort := classify(f); abort != nil {
			return *abort
		}
	}
	if sawShed {
		res.err = fmt.Errorf("%w: all %d candidate replicas shed the request", serve.ErrSaturated, *attempts)
		return res
	}
	rt.errorsC.Inc()
	if lastErr != nil {
		return passResult{err: fmt.Errorf("%w: %d attempts, last: %v", ErrNoReplicas, *attempts, lastErr), final: true}
	}
	return passResult{err: ErrNoReplicas, final: true}
}

// hedgedFetch races the home shard against its ring successor: the
// successor launches only if the home has not answered within HedgeAfter,
// and the first success cancels the other attempt. It returns the winner
// (nil if every launched attempt failed) and the failed attempts.
func (rt *Router) hedgedFetch(ctx context.Context, a, b, step int, iso float32) (*fres, []fres) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser once a winner returns
	ch := make(chan fres, 2)
	// A result nobody will pick up still owns a buffer. One that is already
	// in ch when this call returns is recycled here; an attempt that finishes
	// later recycles its own, from its own goroutine, after its last write.
	var (
		mu      sync.Mutex
		settled bool
	)
	defer func() {
		mu.Lock()
		settled = true
		for len(ch) > 0 {
			rt.Recycle((<-ch).frame)
		}
		mu.Unlock()
	}()
	fire := func(ri int) {
		go func() {
			f := rt.fetch(hctx, ri, step, iso)
			mu.Lock()
			defer mu.Unlock()
			if settled {
				rt.Recycle(f.frame)
				return
			}
			ch <- f // never blocks: two slots, two attempts
		}()
	}
	fire(a)
	launched := 1
	timer := time.NewTimer(rt.cfg.HedgeAfter)
	defer timer.Stop()
	var failed []fres
	for done := 0; done < launched; {
		select {
		case f := <-ch:
			done++
			if f.err == nil {
				if f.ri == b {
					rt.hedgeWins.Inc()
				}
				return &f, failed
			}
			failed = append(failed, f)
		case <-timer.C:
			if launched == 1 {
				rt.hedges.Inc()
				fire(b)
				launched = 2
			}
		case <-ctx.Done():
			return nil, failed
		}
	}
	return nil, failed
}

// Response is a routed query result, decoded. Mesh.Tris are a view of the
// frame this request read off the socket (no second copy of the triangles):
// the mesh belongs to the caller alone — nothing else references that frame,
// and the replica's cached surface is on the far side of a TCP connection —
// until the caller says it is done with it (Release).
type Response struct {
	Mesh  *geom.Mesh
	Iso   float32 // the quantized isovalue the shard extracted
	Route Route

	rt    *Router
	frame []byte // what Mesh views; Release hands it back
}

// Release tells the router the caller is done with the mesh: the frame it
// views goes back for a later query to be read into, and Mesh is cleared.
// Optional — a response never released is the caller's for good, and no
// later query touches it. Not safe to call while Mesh.Tris is still in use.
func (r *Response) Release() {
	r.rt.Recycle(r.frame)
	r.Mesh, r.frame = nil, nil
}

// Query routes one query and decodes the returned frame in place. fetch has
// already checksummed the frame unless DisableVerify is set, so the CRC runs
// exactly once per routed frame either way: there, or here.
func (rt *Router) Query(ctx context.Context, step int, iso float32) (*Response, error) {
	frame, route, err := rt.QueryBytes(ctx, step, iso)
	if err != nil {
		return nil, err
	}
	mesh, qiso, err := meshio.DecodeBinaryView(frame, !rt.cfg.DisableVerify)
	if err != nil {
		rt.Recycle(frame)
		return nil, fmt.Errorf("dist: replica %s returned a bad frame: %w", route.Addr, err)
	}
	return &Response{Mesh: mesh, Iso: qiso, Route: route, rt: rt, frame: frame}, nil
}

// Recycle hands back a frame QueryBytes returned, once the caller is done
// with every byte of it: a later fetch reads its frame into the same memory
// instead of allocating (and zeroing, and faulting in) its own. Optional, and
// the only way a buffer returns — the router never reuses a frame a caller
// still holds. The caller must not touch frame afterwards.
func (rt *Router) Recycle(frame []byte) {
	c := cap(frame)
	if c == 0 || c > freeFrameBytes {
		return
	}
	rt.fmu.Lock()
	defer rt.fmu.Unlock()
	// Make room by dropping the smallest buffer: any frame it could hold, a
	// larger one can too.
	for len(rt.free) == freeFrameSlots || rt.freeBytes+c > freeFrameBytes {
		small := 0
		for i := range rt.free {
			if cap(rt.free[i]) < cap(rt.free[small]) {
				small = i
			}
		}
		if cap(rt.free[small]) >= c {
			return // the newcomer is the smallest
		}
		rt.dropFree(small)
	}
	rt.free = append(rt.free, frame[:0])
	rt.freeBytes += c
}

// takeFrame returns a size-byte buffer for one fetch to read into: the
// tightest recycled one that fits, else a fresh one. Always sliced from the
// buffer's start, where an allocation is aligned for meshio's triangle view.
func (rt *Router) takeFrame(size int) []byte {
	rt.fmu.Lock()
	best := -1
	for i := range rt.free {
		if c := cap(rt.free[i]); c >= size && (best < 0 || c < cap(rt.free[best])) {
			best = i
		}
	}
	if best < 0 {
		rt.fmu.Unlock()
		return make([]byte, size)
	}
	buf := rt.free[best]
	rt.dropFree(best)
	rt.fmu.Unlock()
	return buf[:size]
}

// dropFree removes free[i]; fmu is held.
func (rt *Router) dropFree(i int) {
	last := len(rt.free) - 1
	rt.freeBytes -= cap(rt.free[i])
	rt.free[i] = rt.free[last]
	rt.free[last] = nil
	rt.free = rt.free[:last]
}

// errReplicaFailed marks a definitive replica-side failure (non-503 error
// status) that failover must not paper over.
var errReplicaFailed = errors.New("dist: replica failed the request")

func (rt *Router) fetch(ctx context.Context, ri, step int, iso float32) fres {
	out := fres{ri: ri}
	actx := ctx
	if t := rt.cfg.AttemptTimeout; t > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	// timedOut distinguishes our per-attempt deadline from the caller's.
	timedOut := func(err error) error {
		if actx.Err() != nil && ctx.Err() == nil {
			rt.timeouts.Inc()
			return fmt.Errorf("attempt timed out after %v: %w", rt.cfg.AttemptTimeout, err)
		}
		return err
	}
	addr := rt.cfg.Replicas[ri]
	url := fmt.Sprintf("http://%s/mesh?step=%d&iso=%s",
		addr, step, strconv.FormatFloat(float64(iso), 'g', -1, 32))
	req, err := http.NewRequestWithContext(actx, http.MethodGet, url, nil)
	if err != nil {
		out.err = err
		return out
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		out.err = timedOut(err)
		return out
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for keep-alive
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusServiceUnavailable:
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			out.hint = time.Duration(secs) * time.Second
		}
		out.err = fmt.Errorf("%w (replica %s)", serve.ErrSaturated, addr)
		return out
	default:
		out.err = fmt.Errorf("%w: %s from %s", errReplicaFailed, resp.Status, addr)
		return out
	}
	// One pass: the CRC is folded over each chunk as it comes off the socket.
	// buf is this attempt's alone until its frame is served; on any failure
	// it goes back from here, after ReadFrame — its only writer — returned.
	var buf []byte
	readStart := time.Now()
	frame, err := meshio.ReadFrame(resp.Body, meshio.MaxBinaryFrameBytes, !rt.cfg.DisableVerify, func(size int) []byte {
		buf = rt.takeFrame(size)
		return buf
	})
	malformed := errors.Is(err, meshio.ErrBinaryFormat)
	if err == nil || malformed {
		rt.frameRead.Observe(time.Since(readStart)) // read through to a verdict
	}
	if err != nil {
		rt.Recycle(buf)
		if malformed {
			// Whichever byte was hit — prefix, header or checksum — the
			// replica answered, with the wrong bytes.
			rt.corrupt.Inc()
			out.err = fmt.Errorf("replica %s frame rejected: %w", addr, err)
			return out
		}
		out.err = timedOut(fmt.Errorf("reading frame from %s: %w", addr, err))
		return out
	}
	out.frame, out.src = frame, resp.Header.Get("X-Iso-Source")
	return out
}

func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		var wg sync.WaitGroup
		for i := range rt.cfg.Replicas {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if rt.probe(ctx, i) {
					rt.down[i].Store(false)
				} else {
					rt.markDown(i)
				}
			}(i)
		}
		wg.Wait()
	}
}

func (rt *Router) probe(ctx context.Context, i int) bool {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, "http://"+rt.cfg.Replicas[i]+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64)) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Handler exposes the router over HTTP so remote clients (isoserve
// -connect) can drive the tier without linking it:
//
//	GET /mesh?step=S&iso=V  the routed mesh frame, relayed verbatim from
//	                        the buffer fetch verified it in — buffered whole,
//	                        because a relay that has started writing cannot
//	                        retry on the successor; X-Iso-Replica names the
//	                        shard that served it
//	GET /healthz            200 while ≥1 replica is up
//	/metrics /statusz       the router's registry
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/mesh", func(w http.ResponseWriter, req *http.Request) {
		step, iso, err := parseMeshQuery(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		frame, route, err := rt.QueryBytes(req.Context(), step, iso)
		switch {
		case err == nil:
		case errors.Is(err, serve.ErrSaturated):
			retryAfter := 1
			var se *SaturatedError
			if errors.As(err, &se) && se.RetryAfter > 0 {
				retryAfter = int((se.RetryAfter + time.Second - 1) / time.Second)
			}
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case req.Context().Err() != nil:
			return
		default:
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", MeshContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
		w.Header().Set("X-Iso-Source", route.Source)
		w.Header().Set("X-Iso-Replica", route.Addr)
		w.Write(frame) //nolint:errcheck // client gone is the client's business
		rt.Recycle(frame)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		for i := range rt.down {
			if !rt.isDown(i) {
				w.Write([]byte("ok\n")) //nolint:errcheck
				return
			}
		}
		http.Error(w, "no replicas up", http.StatusServiceUnavailable)
	})
	mux.Handle("/", obs.NewHandler(rt.reg))
	return mux
}
