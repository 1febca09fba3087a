// Package serve is the concurrent query-serving layer: it fronts a
// preprocessed engine (one time step or a time-varying set) for many
// simultaneous clients, turning the one-shot extraction pipeline into a
// multi-client service.
//
// Three mechanisms make N clients cheaper than N extractions:
//
//   - Request coalescing: concurrent requests for the same (time step,
//     rounded isovalue) key join a single in-flight extraction and all
//     receive its result, singleflight-style.
//   - Mesh cache: completed results are kept under a byte budget, keyed the
//     same way and evicted by frequency and size (see meshCache), so repeated
//     queries — the common case under a Zipf-shaped isovalue popularity —
//     skip the backend entirely. A surface is kept the way it is sent: the
//     extraction's welded batches as meshio version 2 chunks and the sealed
//     frame over them, ≈ 11.1 B a triangle. Soup exists only in the hands of
//     a caller that asks for it (Query); the tier's replicas never build it
//     (QueryFrame).
//   - Admission control: at most MaxInFlight extractions run at once and at
//     most QueueDepth more may wait; past that, requests fail fast with
//     ErrSaturated instead of piling onto the disks.
//
// Every request carries a context.Context that is threaded down through
// Engine.Extract into the streaming pipeline's abort path. A coalesced
// extraction is cancelled only when every waiter has abandoned it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/meshio"
	"repro/internal/obs"
)

// ErrSaturated is returned when admission control sheds a request: MaxInFlight
// extractions are running and QueueDepth more are already waiting.
var ErrSaturated = errors.New("serve: saturated: extraction and queue limits reached")

// ErrIsovalue is returned for an isovalue no Key holds: NaN, or a magnitude
// of 2⁶³ or more, whose bucket would overflow int64.
var ErrIsovalue = errors.New("serve: isovalue is NaN or outside ±2⁶³")

// Backend is the extraction service a Server fronts. Implementations must be
// safe for concurrent use. Both cluster engine kinds implement it: an Engine
// serves as time step 0, a TimeVaryingEngine serves each step it indexes.
type Backend interface {
	// ExtractStep runs one isosurface extraction against one time step,
	// honoring ctx cancellation.
	ExtractStep(ctx context.Context, step int, iso float32, opts cluster.Options) (*cluster.Result, error)
}

// Config sizes a Server.
type Config struct {
	// MaxInFlight is the number of extractions allowed to run concurrently
	// (0 = 2). Coalesced joins and cache hits don't consume a slot.
	MaxInFlight int
	// QueueDepth is how many extractions beyond MaxInFlight may wait for a
	// slot before further ones are rejected with ErrSaturated (0 = 16; use a
	// negative value for no queue at all).
	QueueDepth int
	// CacheBytes is the mesh cache budget: each surface is charged its
	// sealed frame's bytes (version 2, ≈ 11.1 B a triangle) plus a small
	// fixed charge per entry (0 = 256 MiB; negative disables caching).
	CacheBytes int64
	// Metrics is the registry the server records into (counters, live
	// gauges, latency and queue-wait histograms under serve_*). Nil creates
	// a private registry, reachable via Server.Metrics — pass the engine's
	// registry to serve everything from one /metrics endpoint. Stats reads
	// the serve_* counters back, so give each Server a registry no other
	// Server records into.
	Metrics *obs.Registry
	// Trace enables per-request stage tracing: every Response carries a
	// Trace (queue-wait, extraction stages, coalesce-join or cache-hit)
	// renderable as a waterfall. Off by default — tracing adds two clock
	// reads per pipeline record.
	Trace bool
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 16
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	return c
}

// Key identifies a servable surface: one time step and one isovalue bucket,
// the isovalue rounded to the nearest integer (the paper's sweeps are
// integers). Requests sharing a Key share extractions and cache slots.
type Key struct {
	Step   int
	Bucket int64
}

// Source says how a request was satisfied.
type Source int

const (
	// SourceExtracted: this request led the extraction that produced the mesh.
	SourceExtracted Source = iota
	// SourceCache: served from the mesh cache with no backend work.
	SourceCache
	// SourceCoalesced: joined another request's in-flight extraction.
	SourceCoalesced
)

func (s Source) String() string {
	switch s {
	case SourceExtracted:
		return "extracted"
	case SourceCache:
		return "cache"
	case SourceCoalesced:
		return "coalesced"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Response is a served query result. From QueryFrame, Result is shared
// between every client whose request mapped to the same Key and with the
// cache itself — treat it as immutable — and its nodes hold the surface as
// chunks only (PerNode[i].Chunks; Mesh is nil). From Query, Result is the
// caller's own copy, each node's Mesh a soup decoded for this call.
type Response struct {
	Key    Key
	Iso    float32 // the rounded isovalue actually extracted
	Source Source
	Wall   time.Duration // request latency inside the server, decode excluded
	Result *cluster.Result
	// Trace is the request's stage trace (nil unless Config.Trace): serve
	// spans plus, for the extraction leader, the backend's per-stage spans
	// shifted into this request's timeline. Coalesced joiners see only their
	// join span — the extraction they shared belongs to the leader's
	// timeline, which started before theirs.
	Trace *obs.Trace

	frame *meshio.Frame
}

// Frame returns the response's surface as a sealed version 2 wire frame over
// the per-node chunks in node order, sealed — one CRC pass — when the
// extraction finished and shared by every response for the surface: later
// cache hits, the extraction's leader and its coalesced joiners all write the
// same immutable bytes.
func (r *Response) Frame() *meshio.Frame { return r.frame }

// surface is one servable result as the server holds it — in the cache, in
// a finished call, in every Response handed out for it: the extraction's
// Result, whose nodes hold chunks and no soup, the frame sealed over those
// chunks, and what the cache charges for the pair.
type surface struct {
	res   *cluster.Result
	frame *meshio.Frame
	bytes int64
}

// newSurface seals res's chunks. The frame views them, so its bytes are the
// surface's: nothing else it holds grows with the surface. A result with
// triangles and no chunks is from a backend that ignored KeepChunks, and
// would otherwise be served as an empty surface.
func newSurface(iso float32, res *cluster.Result) (*surface, error) {
	chunks := make([][]byte, len(res.PerNode))
	kept := 0
	for i := range res.PerNode {
		chunks[i] = res.PerNode[i].Chunks
		kept += len(chunks[i])
	}
	if kept == 0 && res.Triangles > 0 {
		return nil, fmt.Errorf("serve: backend returned %d triangles and no chunks (Options.KeepChunks)", res.Triangles)
	}
	f := meshio.Seal(iso, chunks...)
	return &surface{res: res, frame: f, bytes: int64(f.Len()) + entryOverhead}, nil
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	Requests    int64 // queries received
	CacheHits   int64 // served straight from the mesh cache
	Coalesced   int64 // joined an in-flight identical extraction
	Extractions int64 // extractions completed against the backend
	Rejected    int64 // shed by admission control (ErrSaturated)
	Canceled    int64 // requests abandoned by their context
	Evictions   int64 // cache entries evicted to fit the byte budget

	CachedMeshes int   // current cache entries
	CachedBytes  int64 // bytes charged to the current entries
	InFlight     int   // extractions running now
	Queued       int   // extractions waiting for a slot now
}

// HitRate returns the fraction of requests served without backend work
// (cache hits plus coalesced joins), 0 if there were no requests.
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.CacheHits+s.Coalesced) / float64(s.Requests)
}

// call is one in-flight extraction that any number of requests may be
// waiting on. waiters is guarded by the server mutex; done is closed exactly
// once, after surf/err are set.
type call struct {
	key     Key
	ctx     context.Context
	cancel  context.CancelFunc
	waiters int
	done    chan struct{}
	surf    *surface // nil iff err != nil
	err     error

	// Stage timings for metrics and traces, written by the run goroutine
	// before done is closed (the channel close publishes them to waiters).
	queueWait  time.Duration // admission wait before the extraction slot
	extractDur time.Duration // backend extraction wall time
}

// Server is the concurrent isosurface query service. The zero value is not
// usable; construct with New.
type Server struct {
	backend Backend
	cfg     Config

	mu       sync.Mutex
	inflight map[Key]*call
	cache    *meshCache
	queued   int
	running  int
	met      *serveMetrics // its counters move under mu, so Stats reads them consistent

	slots chan struct{} // capacity MaxInFlight; holding a token = running
}

// New builds a Server over any Backend.
func New(b Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		backend:  b,
		cfg:      cfg,
		inflight: map[Key]*call{},
		cache:    newMeshCache(cfg.CacheBytes),
		slots:    make(chan struct{}, cfg.MaxInFlight),
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.met = newServeMetrics(s, reg)
	return s
}

// Metrics returns the registry the server records into — the one passed as
// Config.Metrics, or the private registry created in its absence. Serve it
// with obs.NewHandler.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// KeyOf is the key a query is coalesced and cached under — and, in the tier,
// sharded by: the router calls it too.
func KeyOf(step int, iso float32) Key {
	return Key{Step: step, Bucket: int64(math.Round(float64(iso)))}
}

// Iso is the isovalue a key extracts: the one every request in its bucket is
// served.
func (k Key) Iso() float32 { return float32(k.Bucket) }

// Query serves one isosurface request: cache hit, coalesced join, or a fresh
// extraction under admission control. It blocks until the surface is
// available, the request is rejected, or ctx is done, and then decodes the
// surface's chunks into a soup of the caller's own per node
// (Result.PerNode[i].Mesh) — on every call, hit or not, so the cache never
// holds soup. An isovalue no Key holds is refused with ErrIsovalue before the
// cache or admission sees it.
func (s *Server) Query(ctx context.Context, step int, iso float32) (*Response, error) {
	resp, err := s.QueryFrame(ctx, step, iso)
	if err != nil {
		return nil, err
	}
	res := *resp.Result
	res.PerNode = slices.Clone(res.PerNode)
	for i := range res.PerNode {
		if res.PerNode[i].Mesh, err = meshio.DecodeChunks(res.PerNode[i].Chunks); err != nil {
			return nil, fmt.Errorf("serve: decoding node %d of the surface at %v: %w", i, resp.Key, err)
		}
	}
	resp.Result = &res
	return resp, nil
}

// CheckIsovalue refuses, with ErrIsovalue, an isovalue no Key holds.
func CheckIsovalue(iso float32) error {
	if !(math.Abs(float64(iso)) < 1<<63) {
		return fmt.Errorf("%w: %v", ErrIsovalue, iso)
	}
	return nil
}

// QueryFrame is Query without the decode: the lookup a replica serves its
// wire from. It shares Query's cache, coalescing and admission — decoding is
// the only difference — and its Response carries the surface as the sealed
// Frame and the shared Result's chunks, never as soup.
func (s *Server) QueryFrame(ctx context.Context, step int, iso float32) (*Response, error) {
	if err := CheckIsovalue(iso); err != nil {
		return nil, err
	}
	start := time.Now()
	key := KeyOf(step, iso)

	s.mu.Lock()
	s.met.requests.Inc()
	if surf, ok := s.cache.get(key); ok {
		s.met.cacheHits.Inc()
		s.mu.Unlock()
		wall := time.Since(start)
		s.met.requestLatency.Observe(wall)
		return &Response{Key: key, Iso: key.Iso(), Source: SourceCache, Wall: wall,
			Result: surf.res, Trace: traceCacheHit(s.cfg.Trace, wall), frame: surf.frame}, nil
	}
	// Join an in-flight extraction — unless its last waiter already
	// abandoned it (its context is cancelled and it is only draining); a
	// joiner would inherit the dying call's context.Canceled. Such a call is
	// replaced in the map; its own teardown only deletes the entry it still
	// owns.
	if c, ok := s.inflight[key]; ok && c.ctx.Err() == nil {
		c.waiters++
		s.met.coalesced.Inc()
		s.mu.Unlock()
		return s.wait(ctx, c, SourceCoalesced, start)
	}
	if s.running+s.queued >= s.cfg.MaxInFlight+s.cfg.QueueDepth {
		s.met.rejected.Inc()
		running, queued := s.running, s.queued
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (%d running, %d queued)", ErrSaturated, running, queued)
	}
	c := &call{key: key, waiters: 1, done: make(chan struct{})}
	// The extraction's context belongs to the call, not to any one client:
	// it is cancelled only when the last waiter abandons the call.
	c.ctx, c.cancel = context.WithCancel(context.Background())
	s.inflight[key] = c
	s.queued++
	s.mu.Unlock()

	go s.run(c)
	return s.wait(ctx, c, SourceExtracted, start)
}

// wait blocks until c completes or ctx is done. Abandoning a call decrements
// its waiter count; the last abandonment cancels the extraction itself.
func (s *Server) wait(ctx context.Context, c *call, src Source, start time.Time) (*Response, error) {
	select {
	case <-c.done:
		if c.err != nil {
			return nil, c.err
		}
		wall := time.Since(start)
		s.met.requestLatency.Observe(wall)
		return &Response{Key: c.key, Iso: c.key.Iso(), Source: src, Wall: wall,
			Result: c.surf.res, Trace: s.traceOf(c, src, wall), frame: c.surf.frame}, nil
	case <-ctx.Done():
		s.mu.Lock()
		s.met.canceled.Inc()
		c.waiters--
		if c.waiters == 0 {
			c.cancel()
		}
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

// traceOf assembles a completed request's trace (nil when tracing is off):
// the leader sees queue-wait, the extraction, and — shifted into its own
// timeline — every backend pipeline span; a coalesced joiner sees the slice
// of the shared extraction it actually waited through.
func (s *Server) traceOf(c *call, src Source, wall time.Duration) *obs.Trace {
	if !s.cfg.Trace {
		return nil
	}
	tr := &obs.Trace{Wall: wall}
	if src == SourceCoalesced {
		tr.Add("serve", "coalesce-join", 0, wall)
		return tr
	}
	tr.Add("serve", "queue-wait", 0, c.queueWait)
	tr.Add("serve", "extract", c.queueWait, c.extractDur)
	if bt := c.surf.res.Trace; bt != nil {
		tr.Append(bt.Spans, c.queueWait)
	}
	return tr
}

// run executes one call: wait for an extraction slot (admission), extract,
// publish the result to cache and waiters. Runs in its own goroutine so that
// a leader whose context dies doesn't take the coalesced extraction with it.
func (s *Server) run(c *call) {
	defer c.cancel()

	submitted := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-c.ctx.Done():
		// Every waiter left while we were still queued.
		s.mu.Lock()
		s.queued--
		s.unregister(c)
		c.err = c.ctx.Err()
		close(c.done)
		s.mu.Unlock()
		return
	}
	c.queueWait = time.Since(submitted)
	s.met.queueWait.Observe(c.queueWait)
	s.mu.Lock()
	s.queued--
	s.running++
	s.mu.Unlock()

	t0 := time.Now()
	// The surface is kept as the chunks it is sent as; no soup is built.
	res, err := s.backend.ExtractStep(c.ctx, c.key.Step, c.key.Iso(), cluster.Options{KeepChunks: true, Trace: s.cfg.Trace})
	c.extractDur = time.Since(t0)
	s.met.extractLatency.Observe(c.extractDur)
	var surf *surface
	if err == nil {
		surf, err = newSurface(c.key.Iso(), res) // the CRC pass, outside the lock
	}

	s.mu.Lock()
	s.running--
	if err == nil {
		s.met.extractions.Inc()
		c.surf = surf
		s.met.evictions.Add(s.cache.put(c.key, c.surf))
	}
	c.err = err
	s.unregister(c)
	close(c.done)
	s.mu.Unlock()
	<-s.slots
}

// unregister removes c from the in-flight map if the entry is still c's: a
// fully-abandoned call may already have been replaced by a successor for the
// same key, which must not be evicted. Caller holds s.mu.
func (s *Server) unregister(c *call) {
	if s.inflight[c.key] == c {
		delete(s.inflight, c.key)
	}
}

// Stats returns a snapshot of the server's counters: the serve_* counters of
// its registry, and the live state beside them.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Requests:    s.met.requests.Value(),
		CacheHits:   s.met.cacheHits.Value(),
		Coalesced:   s.met.coalesced.Value(),
		Extractions: s.met.extractions.Value(),
		Rejected:    s.met.rejected.Value(),
		Canceled:    s.met.canceled.Value(),
		Evictions:   s.met.evictions.Value(),
		InFlight:    s.running,
		Queued:      s.queued,
	}
	st.CachedMeshes, st.CachedBytes = s.cache.size()
	return st
}
