package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// MeshContentType is the media type of a binary mesh frame.
const MeshContentType = "application/x-isosurface-mesh"

// ReplicaConfig sizes one replica of the serving tier.
type ReplicaConfig struct {
	// Serve sizes the replica's query service (admission, mesh cache).
	// Give each replica its own Metrics registry — the serve metric names
	// are per-process, so two replicas sharing one registry would also
	// share counters. StartCluster does this for you.
	Serve serve.Config

	// MaxInFlight bounds requests inside the replica at once — parsing,
	// querying, encoding or writing (0 = 64). Beyond it the replica
	// sheds with 503 + Retry-After, the signal the router's failover feeds
	// on. This is the HTTP layer's admission: the extraction pipeline
	// behind it has its own (Serve.MaxInFlight), and cache hits that would
	// sail through extraction admission still occupy a slot here while
	// their response is on the wire.
	MaxInFlight int
}

// retryAfter is the Retry-After hint on every 503 the replica sheds with.
const retryAfter = time.Second

func (c ReplicaConfig) withDefaults() ReplicaConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	return c
}

// Replica serves one shard of the tier: a serve.Server (coalescing, mesh
// cache, extraction admission) behind an HTTP endpoint speaking the binary
// mesh wire format, plus the observability surface.
//
//	GET /mesh?step=S&iso=V  one frame (200), 503 + Retry-After when shed
//	GET /healthz            200 while serving, 503 once draining (for load
//	                        balancers: a router does not read it)
//	/metrics /statusz /debug/pprof/   the obs handler over the replica's registry
type Replica struct {
	srv *serve.Server
	cfg ReplicaConfig
	obs http.Handler

	hs *http.Server
	ln net.Listener

	draining atomic.Bool
	inflight atomic.Int64

	requests *obs.Counter
	sheds    *obs.Counter
	txBytes  *obs.Counter
}

// NewReplicaServer mounts srv behind the replica HTTP surface. The replica
// records its own metrics (replica_*) into srv.Metrics().
func NewReplicaServer(srv *serve.Server, cfg ReplicaConfig) *Replica {
	cfg = cfg.withDefaults()
	reg := srv.Metrics()
	r := &Replica{
		srv:      srv,
		cfg:      cfg,
		obs:      obs.NewHandler(reg),
		requests: reg.Counter("replica_requests_total", "mesh requests received over HTTP"),
		sheds:    reg.Counter("replica_sheds_total", "requests shed with 503 (overload or draining)"),
		txBytes:  reg.Counter("replica_tx_bytes_total", "mesh frame bytes transmitted"),
	}
	return r
}

// Server returns the underlying query service: the harness's warm pass
// queries it in process, bypassing the HTTP surface.
func (r *Replica) Server() *serve.Server { return r.srv }

// Stats snapshots the underlying query service's counters.
func (r *Replica) Stats() serve.Stats { return r.srv.Stats() }

// Handler returns the replica's HTTP surface, for mounting on a listener of
// the caller's choosing; Start is the usual path.
func (r *Replica) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/mesh", r.handleMesh)
	mux.HandleFunc("/healthz", r.handleHealth)
	mux.Handle("/", r.obs)
	return mux
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the background
// until Drain or Close. The bound address is available as Addr.
func (r *Replica) Start(addr string) error {
	if r.ln != nil {
		return errors.New("dist: replica already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: replica listen: %w", err)
	}
	r.ln = ln
	r.hs = NewHTTPServer(r.Handler())
	go r.hs.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (r *Replica) Addr() string {
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Drain takes the replica out of rotation gracefully: /healthz flips to 503
// for load balancers, new mesh requests are shed, the listener closes — so
// a router's next attempt fails to connect and marks the replica down — and
// Drain blocks until in-flight requests finish (or ctx expires).
func (r *Replica) Drain(ctx context.Context) error {
	r.draining.Store(true)
	if r.hs == nil {
		return nil
	}
	return r.hs.Shutdown(ctx)
}

// Close hard-stops the replica: the listener closes and in-flight requests
// are cut mid-response — the failure the router's failover test injects.
func (r *Replica) Close() error {
	r.draining.Store(true)
	if r.hs == nil {
		return nil
	}
	return r.hs.Close()
}

func (r *Replica) handleHealth(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n")) //nolint:errcheck
}

func (r *Replica) shed(w http.ResponseWriter, msg string) {
	r.sheds.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	http.Error(w, msg, http.StatusServiceUnavailable)
}

func (r *Replica) handleMesh(w http.ResponseWriter, req *http.Request) {
	r.requests.Inc()
	if r.draining.Load() {
		r.shed(w, "draining")
		return
	}
	if n := r.inflight.Add(1); n > int64(r.cfg.MaxInFlight) {
		r.inflight.Add(-1)
		r.shed(w, fmt.Sprintf("replica overloaded: %d requests in flight", n-1))
		return
	}
	defer r.inflight.Add(-1)

	step, iso, err := parseMeshQuery(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := r.srv.QueryFrame(req.Context(), step, iso)
	switch {
	case err == nil:
	case errors.Is(err, serve.ErrSaturated):
		r.shed(w, err.Error())
		return
	case errors.Is(err, serve.ErrIsovalue):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case req.Context().Err() != nil:
		return // client gone; nothing to say and no one to say it to
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	// One frame per response, the per-node chunks in node order — decoded,
	// the same mesh a direct Extract + merge produces (the E2E byte-identity
	// test holds the tier to that). The frame is the surface's sealed one:
	// header and CRC were computed when its extraction finished, and the
	// payload written below is the cached chunks' own memory. Nothing is
	// decoded on this side of the wire.
	frame := resp.Frame()

	w.Header().Set("Content-Type", MeshContentType)
	w.Header().Set("Content-Length", strconv.Itoa(frame.Len()))
	w.Header().Set("X-Iso-Source", resp.Source.String())
	w.Header().Set("X-Iso-Step", strconv.Itoa(step))
	w.Header().Set("X-Iso-Quantized", strconv.FormatFloat(float64(resp.Iso), 'g', -1, 32))
	if n, err := frame.WriteTo(w); err == nil {
		r.txBytes.Add(n)
	}
}

// MeshURL is the address of one mesh on a replica or a router front end: the
// request parseMeshQuery reads back to the same step and the same float32.
func MeshURL(addr string, step int, iso float32) string {
	return fmt.Sprintf("http://%s/mesh?step=%d&iso=%s", addr, step,
		url.QueryEscape(strconv.FormatFloat(float64(iso), 'g', -1, 32))) // a large value's exponent carries a '+'
}

func parseMeshQuery(req *http.Request) (step int, iso float32, err error) {
	q := req.URL.Query()
	if s := q.Get("step"); s != "" {
		step, err = strconv.Atoi(s)
		if err != nil {
			return 0, 0, fmt.Errorf("bad step %q: %w", s, err)
		}
	}
	is := q.Get("iso")
	if is == "" {
		return 0, 0, errors.New("missing iso parameter")
	}
	v, err := strconv.ParseFloat(is, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad iso %q: %w", is, err)
	}
	return step, float32(v), nil
}
