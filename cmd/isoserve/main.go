// Command isoserve load-tests the isosurface query service: it preprocesses
// a synthetic RM time step, stands up a serve.Server in front of it, and
// drives it with a population of synthetic clients whose isovalue popularity
// follows a Zipf distribution — the traffic shape of a public query service,
// where a few surfaces are requested constantly and a long tail rarely.
//
// Modes:
//
//	isoserve -size small -clients 32 -requests 32            # closed loop
//	isoserve -size small -clients 32 -qps 200 -duration 10s  # open loop
//	isoserve -size small -clients 32 -listen :9090           # + /metrics, /statusz, pprof
//	isoserve -size small -clients 32 -replicas 4             # sharded tier on loopback sockets
//	isoserve -size small -replicas 3 -serve :8080            # daemon: router + replicas, no load
//	isoserve -clients 32 -connect 127.0.0.1:8080             # drive a remote tier
//	isoserve -size small -replicas 3 -chaos drop=0.125,corrupt=0.25 -hedge 50ms  # fault one replica
//
// The closed loop reports throughput and latency percentiles plus the
// server's hit/coalesce/eviction counters; the open loop additionally sheds
// load (ErrSaturated) once the admission queue fills. -replicas stands up
// the internal/dist sharded tier — N replica servers on loopback listeners
// and a consistent-hash router — and drives the load through it over real
// sockets; -serve exposes that router on an address and waits instead of
// generating load; -connect drives a tier someone else is serving. -listen
// mounts the observability handler (Prometheus /metrics, JSON /statusz,
// /debug/pprof) over a registry shared by the engine and the server, and
// keeps serving it after the load run finishes so the final state can be
// scraped; -trace prints the stage waterfall of the first extraction;
// -statslog emits a periodic one-line metrics digest. Ctrl-C cancels the run
// gracefully through every in-flight extraction.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/meshio"
	"repro/internal/obs"
	"repro/internal/serve"
)

var (
	size    = flag.String("size", "small", "full (256×256×240) or small (96×96×90)")
	procs   = flag.Int("procs", 4, "cluster nodes")
	threads = flag.Int("threads", 1, "triangulation threads per node")

	clients  = flag.Int("clients", 32, "concurrent synthetic clients")
	requests = flag.Int("requests", 32, "closed-loop requests per client")
	qps      = flag.Float64("qps", 0, "open-loop target request rate (0 = closed loop)")
	duration = flag.Duration("duration", 10*time.Second, "open-loop run length")

	zipfS  = flag.Float64("zipf", 1.1, "Zipf skew of isovalue popularity (>1)")
	levels = flag.Int("levels", 64, "distinct isovalue levels")
	isoMin = flag.Float64("isomin", 10, "lowest isovalue level")
	isoMax = flag.Float64("isomax", 210, "highest isovalue level")
	seed   = flag.Int64("seed", 42, "workload seed")

	maxInFlight = flag.Int("max-inflight", 0, "extractions allowed concurrently (0 = serve default)")
	queueDepth  = flag.Int("queue", 0, "admission queue depth (0 = clients, so the closed loop is never shed)")
	cacheBytes  = flag.Int64("cache-bytes", 0, "mesh cache budget (0 = serve default 256 MiB, <0 disables)")

	replicas  = flag.Int("replicas", 0, "shard the tier across N replica servers on loopback sockets (0 = one in-process server, no sockets)")
	serveAddr = flag.String("serve", "", "serve the tier's router on this address and wait; no load is generated")
	connect   = flag.String("connect", "", "drive a remote tier (a router or replica /mesh endpoint) at this address; no engine is built")

	attemptTimeout = flag.Duration("attempt-timeout", 0, "router per-attempt timeout (0 = the router's default, 30s)")
	hedge          = flag.Duration("hedge", 0, "router hedges the first attempt to the ring successor after this delay (0 = off)")
	chaosSpec      = flag.String("chaos", "", "inject faults into the tier's client path, e.g. latency=20ms,drop=0.125,corrupt=0.25")
	chaosReplica   = flag.Int("chaos-replica", 0, "replica index the -chaos fault applies to (-replicas mode)")
	chaosSeed      = flag.Uint64("chaos-seed", 42, "seed of the chaos fault streams")

	listen   = flag.String("listen", "", "serve /metrics, /statusz and /debug/pprof on this address (e.g. :9090)")
	trace    = flag.Bool("trace", false, "record stage traces; print the first extraction's waterfall")
	statslog = flag.Duration("statslog", 0, "log a one-line metrics digest at this interval (0 = off)")
)

// checkFlags refuses, before anything is built, a flag set no mode can run,
// and returns the parsed -chaos plan.
func checkFlags() (chaos.Fault, error) {
	tier := *replicas > 0 || *serveAddr != "" // -serve alone is a one-replica tier
	switch {
	case *chaosSpec != "" && !tier && *connect == "":
		return chaos.Fault{}, errors.New("-chaos injects transport faults: it needs -replicas, -serve or -connect")
	case *chaosSpec != "" && tier && (*chaosReplica < 0 || *chaosReplica >= max(*replicas, 1)):
		return chaos.Fault{}, fmt.Errorf("-chaos-replica %d out of range (tier has %d replicas)", *chaosReplica, max(*replicas, 1))
	case *zipfS <= 1:
		return chaos.Fault{}, fmt.Errorf("-zipf must be > 1 (Zipf skew), got %v", *zipfS)
	case *levels < 2:
		return chaos.Fault{}, fmt.Errorf("-levels must be ≥ 2, got %d", *levels)
	// Daemon mode generates no load; the client flags don't apply to it.
	case *serveAddr == "" && *clients < 1:
		return chaos.Fault{}, fmt.Errorf("-clients must be ≥ 1, got %d", *clients)
	case *serveAddr == "" && *requests < 1:
		return chaos.Fault{}, fmt.Errorf("-requests must be ≥ 1, got %d", *requests)
	case *connect != "" && tier:
		return chaos.Fault{}, errors.New("-connect drives a remote tier: it excludes -replicas and -serve")
	}
	return chaos.ParseFault(*chaosSpec)
}

// serveOn serves h on addr in the background and returns the bound address.
func serveOn(addr, what string, h http.Handler) net.Addr {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := dist.NewHTTPServer(h).Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("%s: %v", what, err)
		}
	}()
	return ln.Addr()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("isoserve: ")
	flag.Parse()
	fault, err := checkFlags()
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// One registry spans every layer: the engine's pipeline histograms, the
	// device read counters, and the server's request metrics land side by
	// side on the same /metrics page.
	reg := obs.NewRegistry()
	if *listen != "" {
		log.Printf("metrics on http://%s/metrics (also /statusz, /debug/pprof)", serveOn(*listen, "metrics server", obs.NewHandler(reg)))
	}
	if *statslog > 0 {
		go obs.LogLoop(ctx, reg, *statslog, log.Printf)
	}

	r := &run{reg: reg, fault: fault, cfg: harness.DefaultRM()}
	if *size == "small" {
		r.cfg = harness.Small()
	}
	r.w = harness.ServingWorkload{
		ReqPerClient: *requests,
		Levels:       *levels,
		ZipfS:        *zipfS,
		IsoMin:       float32(*isoMin),
		IsoMax:       float32(*isoMax),
		Seed:         *seed,
	}
	r.scfg = serve.Config{
		MaxInFlight: *maxInFlight,
		QueueDepth:  *queueDepth,
		CacheBytes:  *cacheBytes,
		Metrics:     reg,
		Trace:       *trace,
	}
	if r.scfg.QueueDepth == 0 {
		r.scfg.QueueDepth = *clients
	}

	var m mode = r.served
	switch {
	case *connect != "":
		m = r.remote
	case *replicas > 0 || *serveAddr != "":
		m = r.tier
	}
	query, label, cleanup := m(ctx)
	defer cleanup()
	if query == nil {
		return // the mode was its own run: -serve's daemon
	}

	load := harness.Load{Clients: *clients}
	if *qps > 0 {
		load.QPS, load.Duration = *qps, *duration
		log.Printf("open loop: %d clients, %.0f q/s target, %v, Zipf(%.2g) over %d levels [%s]",
			*clients, *qps, *duration, *zipfS, *levels, label)
	} else {
		log.Printf("closed loop: %d clients × %d requests, Zipf(%.2g) over %d levels [%s]",
			*clients, *requests, *zipfS, *levels, label)
	}
	var rec recorder
	wall, dropped := r.w.Drive(ctx, load, query, rec.record)
	if dropped > 0 {
		log.Printf("load generator saturated: dropped %d dispatch ticks", dropped)
	}
	rec.print(wall)
	if tr := r.firstTrace.Load(); tr != nil {
		fmt.Printf("\nfirst extraction, stage waterfall (wall %v):\n%s", tr.Wall.Round(time.Microsecond), tr)
	}
	if ctx.Err() != nil {
		log.Print("interrupted — partial results above")
		return
	}
	if *listen != "" {
		log.Printf("run complete — still serving metrics on %s, Ctrl-C to exit", *listen)
		<-ctx.Done()
	}
}

// run is what the modes share beside the flags: what main derived from them.
type run struct {
	reg   *obs.Registry
	cfg   harness.RMConfig
	w     harness.ServingWorkload
	scfg  serve.Config
	fault chaos.Fault // the parsed -chaos plan

	injector   *chaos.Injector // set by routerConfig under -chaos
	firstTrace atomic.Pointer[obs.Trace]
}

// queryFunc is the load driver's request: one client asking for one isovalue.
type queryFunc = func(ctx context.Context, client int, iso float32) error

// A mode stands up what the load is driven through and returns the request
// to drive, a label for the log line, and what to close and print when the
// run is over. A nil query means the mode was the whole run.
type mode = func(context.Context) (query queryFunc, label string, cleanup func())

// engine preprocesses the volume every mode but -connect (which has the tier
// do it) extracts from.
func (r *run) engine() *cluster.Engine {
	log.Printf("preprocessing %d×%d×%d on %d nodes…", r.cfg.NX, r.cfg.NY, r.cfg.NZ, *procs)
	eng, err := cluster.Build(harness.Volume(r.cfg), cluster.Config{Procs: *procs, ThreadsPerNode: *threads, Metrics: r.reg})
	if err != nil {
		log.Fatal(err)
	}
	return eng
}

func (r *run) served(context.Context) (queryFunc, string, func()) {
	srv := serve.New(r.engine(), r.scfg)
	return func(ctx context.Context, _ int, iso float32) error {
		resp, err := srv.Query(ctx, 0, iso)
		if err == nil && resp.Source == serve.SourceExtracted && resp.Trace != nil {
			r.firstTrace.CompareAndSwap(nil, resp.Trace)
		}
		return err
	}, "served", func() { printStats(srv.Stats()) }
}

// routerConfig is the one place flags become a dist.RouterConfig, for the
// local tier (no replicas named: StartCluster fills in its own) and for
// -connect alike. Under -chaos an injector-wrapped client slots the chaos
// layer between the router and the tier; -attempt-timeout and -hedge decide
// whether it copes.
func (r *run) routerConfig(replicas ...string) dist.RouterConfig {
	rc := dist.RouterConfig{
		Replicas:       replicas,
		Metrics:        r.reg,
		AttemptTimeout: *attemptTimeout,
		HedgeAfter:     *hedge,
	}
	if *chaosSpec != "" {
		r.injector = chaos.NewInjector(*chaosSeed)
		rc.Client = &http.Client{Transport: r.injector.Transport(dist.NewTransport())}
	}
	return rc
}

// printInjected reports what -chaos actually did, after the router's view.
func (r *run) printInjected() {
	if r.injector != nil {
		s := r.injector.Stats()
		fmt.Printf("chaos: %d delayed · %d dropped · %d blackholed · %d truncated · %d corrupted\n",
			s.Delayed, s.Dropped, s.Blackhole, s.Truncated, s.Corrupted)
	}
}

func (r *run) remote(context.Context) (queryFunc, string, func()) {
	rt, err := dist.NewRouter(r.routerConfig(*connect))
	if err != nil {
		log.Fatal(err)
	}
	if r.injector != nil {
		r.injector.SetFault(*connect, r.fault)
	}
	return routedQuery(rt), "remote tier at " + *connect, func() {
		rt.Close()
		printRouterStats(rt.Stats())
		r.printInjected()
	}
}

// tier is -replicas and -serve: N replicas and a router on loopback sockets,
// driven with load or, under -serve, exposed and left running.
func (r *run) tier(ctx context.Context) (queryFunc, string, func()) {
	n := max(*replicas, 1)
	cl, err := dist.StartCluster(r.engine(), dist.ClusterConfig{
		Replicas: n,
		Replica:  dist.ReplicaConfig{Serve: r.scfg},
		Router:   r.routerConfig(),
	})
	if err != nil {
		log.Fatal(err)
	}
	if r.injector != nil {
		r.injector.SetFault(cl.Replicas[*chaosReplica].Addr(), r.fault)
		log.Printf("chaos: replica %d faulted with %s", *chaosReplica, r.fault)
	}
	cleanup := func() {
		cl.Close()
		printDistStats(cl)
		r.printInjected()
	}
	for i, rep := range cl.Replicas {
		log.Printf("replica %d on http://%s (/mesh, /healthz, /metrics, /statusz)", i, rep.Addr())
	}
	if *serveAddr != "" {
		log.Printf("router on http://%s — try /mesh?iso=110, /healthz, /statusz; Ctrl-C to exit",
			serveOn(*serveAddr, "router", cl.Router.Handler()))
		<-ctx.Done()
		return nil, "", cleanup
	}
	return routedQuery(cl.Router), fmt.Sprintf("sharded tier, %d replicas", n), cleanup
}

// recorder aggregates one load run's outcomes. Served-request latencies go
// into an obs histogram — constant memory for any run length, and the same
// quantile math the service exports on /metrics.
type recorder struct {
	mu                                 sync.Mutex
	served, rejected, canceled, failed int64
	lats                               obs.Histogram // served requests only
}

func (r *recorder) record(lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err == nil:
		r.served++
		r.lats.Observe(lat)
	case errors.Is(err, serve.ErrSaturated):
		r.rejected++
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.canceled++
	default:
		r.failed++
	}
}

func (r *recorder) print(wall time.Duration) {
	total := r.served + r.rejected + r.canceled + r.failed
	fmt.Printf("\n%d requests in %v: %d served (%.1f q/s), %d shed, %d canceled, %d failed\n",
		total, wall.Round(time.Millisecond), r.served,
		float64(r.served)/wall.Seconds(), r.rejected, r.canceled, r.failed)
	if r.lats.Count() == 0 {
		return
	}
	fmt.Printf("latency p50 %v · p90 %v · p99 %v · max %v\n",
		r.lats.Quantile(0.50).Round(time.Microsecond), r.lats.Quantile(0.90).Round(time.Microsecond),
		r.lats.Quantile(0.99).Round(time.Microsecond), r.lats.Max().Round(time.Microsecond))
}

// routedQuery adapts a dist.Router to the load driver's query signature:
// fetch the frame over the wire and validate its header, skipping the full
// decode — the load generator only needs the bytes moved.
func routedQuery(rt *dist.Router) func(context.Context, int, float32) error {
	return func(ctx context.Context, _ int, iso float32) error {
		frame, _, err := rt.QueryBytes(ctx, 0, iso)
		if err != nil {
			return err
		}
		_, _, err = meshio.DecodeBinaryHeader(frame)
		rt.Recycle(frame)
		return err
	}
}

func printRouterStats(st dist.RouterStats) {
	up := 0
	for _, down := range st.Down {
		if !down {
			up++
		}
	}
	fmt.Printf("\nrouter: %d routed · %d failovers · %d all-saturated · %d errors · %d/%d replicas up\n",
		st.Routed, st.Failovers, st.Saturated, st.Errors, up, len(st.Down))
	if st.Retries+st.Hedges+st.CorruptFrames+st.AttemptTimeouts+st.Revived > 0 {
		fmt.Printf("        %d backoff retries · %d hedges (%d won) · %d corrupt frames · %d attempt timeouts · %d revived\n",
			st.Retries, st.Hedges, st.HedgeWins, st.CorruptFrames, st.AttemptTimeouts, st.Revived)
	}
}

func printDistStats(cl *dist.Cluster) {
	rs := cl.Router.Stats()
	printRouterStats(rs)
	for i, st := range cl.Stats() {
		share := 0.0
		if rs.Routed > 0 {
			share = 100 * float64(rs.Served[i]) / float64(rs.Routed)
		}
		fmt.Printf("replica %d: %.0f%% of routed · %d requests · hit rate %.0f%% · %d coalesced · %d extractions · %d shed · cache %d meshes / %s\n",
			i, share, st.Requests, 100*st.HitRate(), st.Coalesced, st.Extractions, st.Rejected,
			st.CachedMeshes, obs.FormatBytes(st.CachedBytes))
	}
}

func printStats(st serve.Stats) {
	fmt.Printf("\nserver: %d requests · %d cache hits · %d coalesced · %d extractions · %d shed · %d canceled\n",
		st.Requests, st.CacheHits, st.Coalesced, st.Extractions, st.Rejected, st.Canceled)
	fmt.Printf("        hit rate %.0f%% · cache %d meshes / %s · %d evictions\n",
		100*st.HitRate(), st.CachedMeshes, obs.FormatBytes(st.CachedBytes), st.Evictions)
}
