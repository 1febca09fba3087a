package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/meshio"
	"repro/internal/serve"
)

// steady is the steady-state guard's warm-up, applied identically on every
// run: prime every key, then replay the workload's own stream until pools and
// caches hold what they will hold and the heap has reached the size it will
// keep (see collect). It returns its cost, reported as bench.warmup_s.
func steady(ctx context.Context, e *env, seed int64) (float64, error) {
	start := time.Now()
	// Prime: every key once, so each mesh is in its home replica's cache (or
	// has been through it, where the cache is smaller than the key set).
	for k := range isovalues {
		resp, err := e.request(ctx, k)
		if err != nil {
			return 0, fmt.Errorf("priming key %d: %w", k, err)
		}
		if !e.chk[0].check(k, resp) {
			return 0, fmt.Errorf("priming key %d: response differs from direct extraction", k)
		}
	}
	if e.cfg.warmupRequests > 0 {
		ph := e.runPhase(ctx, seed, phaseWarmup, 0, e.cfg.warmupRequests)
		if ph.failed > 0 {
			return 0, fmt.Errorf("warm-up: %d of %d requests failed", ph.failed, ph.attempted)
		}
	}
	return time.Since(start).Seconds(), nil
}

// collect is the other half of the guard. On this class of host a page the
// guest has not touched lately costs 30–60 µs to fault in (the hypervisor
// takes freed pages back and re-backs them on first use) against ~2 µs for a
// resident one, so whether a fresh 60 MB mesh lands on recycled or on new
// pages decides whether its request takes 60 ms or 600. Left to pace itself,
// the collector lets the heap creep for hundreds of requests (the engine's
// mesh pool keeps growing, and the goal with it) while the scavenger hands
// back and re-faults ~100 MB a cycle; identical runs then disagree by 2×.
// A memory limit is no better: the scavenger works hardest at the limit.
// So the benchmark turns automatic collection off and collects whenever the
// heap has grown to a fixed size, checked between requests and outside any
// latency clock. The heap reaches that size during warm-up, every cycle
// starts from the same footprint so the scavenger finds little to return,
// and timed allocations reuse resident pages. How often the collector runs
// still follows how much the system allocates.
func (cfg config) collect() {
	if cfg.heapTrigger == 0 {
		return
	}
	sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Uint64() >= cfg.heapTrigger && collecting.TryLock() {
		runtime.GC()
		collecting.Unlock()
	}
}

// collecting keeps two clients from collecting at once.
var collecting sync.Mutex

// checker is one client's correctness oracle. Every response must have the
// reference's triangle count; the first response per key and every 8th after
// must encode to the reference's bytes (routed ≡ direct). It encodes into
// one reused buffer: an allocating check perturbs the request that follows.
type checker struct {
	refs []reference
	buf  []byte
	seen []int
}

func (c *checker) check(key int, r response) bool {
	ref := c.refs[key]
	n := c.seen[key]
	c.seen[key]++
	if r.tris != ref.tris {
		return false
	}
	if n%8 != 0 {
		return true
	}
	c.buf = meshio.AppendBinary(c.buf[:0], r.iso, r.meshes...)
	return referenceOf(c.buf, r.tris) == ref
}

// sample is one timed request.
type sample struct {
	key      int
	lat      time.Duration
	tris     int
	ok       bool
	attempts int
	// The extraction's own pipeline report, summed over nodes (cold_sweep).
	producerStall, consumerStall time.Duration
	peakBuffered                 int64
}

// phase is one closed-loop run of the workload's clients and what the
// process's public counters moved by while it ran.
type phase struct {
	samples   []sample
	attempted int
	failed    int
	wall      time.Duration

	allocBytes uint64 // runtime.MemStats.TotalAlloc delta: client and tier, one process
	gcCycles   uint32
	heapSysMB  float64
	cpu        time.Duration // user+system CPU of the process
	wireBytes  int64         // frame bytes read off the sockets (routed)
	serve      serve.Stats   // summed over replicas, delta over the phase (routed)
	router     repro.RouterStats
}

// runPhase drives the workload's clients, each from its own stream, until
// the deadline has passed (seconds > 0) or maxRequests have been issued in
// total. A sweep's client finishes the sweep it is in, so every run of
// cold_sweep times whole sweeps and the same mix exactly; a Zipf deck is too
// long for that (50 requests) and is cut where the deadline falls. Latency is
// the wall time of the public call alone; the oracle runs after that clock
// has stopped.
func (e *env) runPhase(ctx context.Context, seed int64, streamPhase int, seconds float64, maxRequests int) phase {
	var ph phase
	perClient := make([][]sample, e.w.clients)
	var issued atomic.Int64
	take := func() bool { // claims one request of the budget
		return maxRequests <= 0 || issued.Add(1) <= int64(maxRequests)
	}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	var wire0 int64
	var serve0 serve.Stats
	var router0 repro.RouterStats
	if e.tier != nil {
		wire0, serve0, router0 = e.wire.bytes.Load(), e.serveStats(), e.tier.Router.Stats()
	}

	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < e.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := newStream(e.w, seed, streamPhase, c)
			for (seconds <= 0 || time.Now().Before(deadline) || !e.w.zipf && !st.atDeckEnd()) && take() {
				key := st.next()
				t0 := time.Now()
				resp, err := e.request(ctx, key)
				s := sample{key: key, lat: time.Since(t0)}
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s key %d: %v\n", e.w.name, key, err)
				} else {
					s.ok = e.chk[c].check(key, resp)
					s.tris, s.attempts = resp.tris, resp.attempts
					if resp.result != nil {
						for _, n := range resp.result.PerNode {
							s.producerStall += n.ProducerStall
							s.consumerStall += n.ConsumerStall
							s.peakBuffered = max(s.peakBuffered, n.PeakBufferedBytes)
						}
					}
				}
				perClient[c] = append(perClient[c], s)
				e.cfg.collect()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	ph.gcCycles = after.NumGC - before.NumGC
	ph.heapSysMB = float64(after.HeapSys) / 1e6
	ph.cpu = cpuTime() - cpu0
	if e.tier != nil {
		ph.wireBytes = e.wire.bytes.Load() - wire0
		ph.serve = subServe(e.serveStats(), serve0)
		ph.router = subRouter(e.tier.Router.Stats(), router0)
	}
	for _, ss := range perClient {
		ph.samples = append(ph.samples, ss...)
	}
	ph.tally()
	return ph
}

// tally counts the phase's requests and those that failed.
func (ph *phase) tally() {
	ph.attempted, ph.failed = len(ph.samples), 0
	for _, s := range ph.samples {
		if !s.ok {
			ph.failed++
		}
	}
}

// latencies returns the phase's request latencies in milliseconds.
func (ph phase) latencies() []float64 {
	v := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		v[i] = ms(s.lat)
	}
	return v
}

// keyMedians returns each key's median latency in milliseconds (0 for a key
// the phase never requested).
func (ph phase) keyMedians() []float64 {
	byKey := make([][]float64, len(isovalues))
	for _, s := range ph.samples {
		byKey[s.key] = append(byKey[s.key], ms(s.lat))
	}
	out := make([]float64, len(byKey))
	for k, v := range byKey {
		out[k] = median(v)
	}
	return out
}

// serveStats sums the replicas' query-service counters.
func (e *env) serveStats() serve.Stats {
	var t serve.Stats
	for _, s := range e.tier.Stats() {
		t.Requests += s.Requests
		t.CacheHits += s.CacheHits
		t.Coalesced += s.Coalesced
		t.Extractions += s.Extractions
		t.Rejected += s.Rejected
		t.Evictions += s.Evictions
		t.CachedMeshes += s.CachedMeshes
		t.CachedBytes += s.CachedBytes
	}
	return t
}

// subServe is the counters' movement from b to a; the cache occupancy
// gauges keep a's reading.
func subServe(a, b serve.Stats) serve.Stats {
	a.Requests -= b.Requests
	a.CacheHits -= b.CacheHits
	a.Coalesced -= b.Coalesced
	a.Extractions -= b.Extractions
	a.Rejected -= b.Rejected
	a.Evictions -= b.Evictions
	return a
}

func subRouter(a, b repro.RouterStats) repro.RouterStats {
	a.Routed -= b.Routed
	a.Failovers -= b.Failovers
	a.Retries -= b.Retries
	a.CorruptFrames -= b.CorruptFrames
	return a
}

// progress reports where a run has got to, on standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd is the untraced pass: it sets the system up (several times, for a
// steady setup_s), warms it, times the closed loop and reports the end-to-end
// metrics.
func endToEnd(ctx context.Context, cfg config, w workload, seed int64) (result, error) {
	in := generate(cfg)
	var e *env
	var setups []float64
	for i := 0; i < cfg.setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		var s float64
		var err error
		if e, s, err = setup(cfg, w, in); err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}
	defer e.close()
	progress("%s: volume in %.2fs, set-up (median of %d) %.3fs", w.name, in.genSeconds, len(setups), median(setups))
	if err := e.extractReferences(ctx); err != nil {
		return result{}, err
	}
	warm, err := steady(ctx, e, seed)
	if err != nil {
		return result{}, err
	}
	progress("%s: steady-state guard took %.2fs", w.name, warm)
	ph := e.runPhase(ctx, seed, phaseTimed, cfg.seconds, cfg.maxRequests)
	progress("%s: %d requests in %.2fs", w.name, ph.attempted, ph.wall.Seconds())
	if ph.attempted == 0 {
		return result{}, fmt.Errorf("%s: no request finished in %.1fs", w.name, cfg.seconds)
	}

	var tris, busy float64
	for _, s := range ph.samples {
		busy += s.lat.Seconds()
		if s.ok {
			tris += float64(s.tris)
		}
	}
	delivered := float64(ph.wireBytes)
	if !w.routed {
		delivered = tris * 36 // the soup Extract hands back: 36 B a triangle
	}
	reqs := float64(ph.attempted)
	m := metrics{}
	m.set("latency_ms_p50", "ms", median(ph.latencies()))
	// Triangles per second of client waiting: the oracle's own time between
	// requests is the harness's, not the system's, and is left out.
	m.set("mtri_per_s", "Mtri/s", tris/1e6/(busy/float64(w.clients)))
	m.set("alloc_mb_per_req", "MB", float64(ph.allocBytes)/1e6/reqs)
	m.set("delivered_mb_per_req", "MB", delivered/1e6/reqs)
	m.set("setup_s", "s", median(setups))
	return result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}
