package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/meshio"
	"repro/internal/serve"
	"repro/internal/volume"
)

var testEng = struct {
	sync.Once
	eng *cluster.Engine
	err error
}{}

// engine returns a small shared 2-node engine over a sphere volume.
func engine(t *testing.T) *cluster.Engine {
	t.Helper()
	testEng.Do(func() {
		testEng.eng, testEng.err = cluster.Build(volume.Sphere(32), cluster.Config{Procs: 2})
	})
	if testEng.err != nil {
		t.Fatalf("building test engine: %v", testEng.err)
	}
	return testEng.eng
}

func startCluster(t *testing.T, n int, rcfg ReplicaConfig, rtcfg RouterConfig) *Cluster {
	t.Helper()
	c, err := StartCluster(engine(t), ClusterConfig{
		Replicas: n, Replica: rcfg, Router: rtcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestClusterE2EByteIdentical drives the full path — HTTP client → router
// front-end → replica → engine — over real loopback sockets and requires
// the mesh that comes back to be byte-identical to a direct Engine.Extract.
func TestClusterE2EByteIdentical(t *testing.T) {
	ctx := context.Background()
	eng := engine(t)
	const iso = 128

	direct, err := eng.Extract(ctx, iso, cluster.Options{KeepMeshes: true})
	if err != nil {
		t.Fatal(err)
	}
	want, wantSoup := directFrame(t, iso), directSoup(t, iso)

	c := startCluster(t, 3, ReplicaConfig{}, RouterConfig{})

	// Through the router API (client → router → replica over sockets).
	frame, route, err := c.Router.QueryBytes(ctx, 0, iso)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("routed frame (%d bytes, via %s) differs from direct extraction (%d bytes)",
			len(frame), route.Addr, len(want))
	}
	if route.Replica != c.Router.HomeReplica(0, iso) {
		t.Errorf("served by replica %d, home is %d", route.Replica, c.Router.HomeReplica(0, iso))
	}

	// Through the router's HTTP front-end (a remote client's view).
	front := serveOnLoopback(t, c.Router.Handler())
	resp, err := http.Get("http://" + front + fmt.Sprintf("/mesh?step=0&iso=%d", iso))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("front-end: %s: %s", resp.Status, body)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("front-end relay is not byte-identical to direct extraction")
	}
	mesh, qiso, err := meshio.DecodeBinary(got)
	if err != nil {
		t.Fatal(err)
	}
	if qiso != iso || mesh.Len() != direct.Triangles {
		t.Fatalf("decoded (iso %v, %d tris), direct (iso %v, %d tris)", qiso, mesh.Len(), float32(iso), direct.Triangles)
	}
	if !bytes.Equal(meshio.AppendBinaryChecksum(nil, qiso, mesh), wantSoup) {
		t.Fatal("front-end relay does not decode to the direct extraction's soup")
	}

	// The second fetch of the same key must be a cache hit on the same shard.
	_, route2, err := c.Router.QueryBytes(ctx, 0, iso)
	if err != nil {
		t.Fatal(err)
	}
	if route2.Replica != route.Replica || route2.Source != "cache" {
		t.Errorf("second fetch: replica %d source %q, want replica %d source \"cache\"",
			route2.Replica, route2.Source, route.Replica)
	}
}

// serveOnLoopback serves h on a loopback listener for the test's lifetime.
func serveOnLoopback(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := NewHTTPServer(h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestShardAffinity checks the routing invariant the tier exists for: every
// key is extracted on exactly one replica, and repeats hit that shard's
// cache.
func TestShardAffinity(t *testing.T) {
	ctx := context.Background()
	c := startCluster(t, 4, ReplicaConfig{}, RouterConfig{})
	isos := []float32{40, 64, 90, 110, 128, 150, 170, 200}
	for round := 0; round < 2; round++ {
		for _, iso := range isos {
			resp, err := c.Router.Query(ctx, 0, iso)
			if err != nil {
				t.Fatalf("iso %v: %v", iso, err)
			}
			if home := c.Router.HomeReplica(0, iso); resp.Route.Replica != home {
				t.Errorf("iso %v landed on replica %d, home %d", iso, resp.Route.Replica, home)
			}
			if round > 0 && resp.Route.Source != "cache" {
				t.Errorf("iso %v round 2: source %q, want cache", iso, resp.Route.Source)
			}
		}
	}
	var extractions, requests int64
	served := c.Router.Stats().Served
	for i, st := range c.Stats() {
		extractions += st.Extractions
		requests += st.Requests
		// Nothing failed over, so the router's view of the split is each
		// replica's own request count.
		if served[i] != st.Requests {
			t.Errorf("router counts %d requests served by replica %d, the replica saw %d", served[i], i, st.Requests)
		}
	}
	if extractions != int64(len(isos)) {
		t.Errorf("%d extractions across the tier for %d distinct keys", extractions, len(isos))
	}
	if requests != int64(2*len(isos)) {
		t.Errorf("replicas saw %d requests, clients sent %d", requests, 2*len(isos))
	}
}

// TestRouterFailover kills a replica mid-load and requires the router to
// route around it: no client-visible errors once the ring neighbors pick
// up its keys, and the dead replica is marked down.
func TestRouterFailover(t *testing.T) {
	ctx := context.Background()
	c := startCluster(t, 3, ReplicaConfig{}, RouterConfig{})
	isos := []float32{40, 64, 90, 110, 128, 150, 170, 200}
	for _, iso := range isos {
		if _, err := c.Router.Query(ctx, 0, iso); err != nil {
			t.Fatalf("warmup iso %v: %v", iso, err)
		}
	}

	// Kill the replica that owns the first key, hard.
	victim := c.Router.HomeReplica(0, isos[0])
	if err := c.Replicas[victim].Close(); err != nil {
		t.Fatal(err)
	}

	failed := 0
	for round := 0; round < 3; round++ {
		for _, iso := range isos {
			resp, err := c.Router.Query(ctx, 0, iso)
			if err != nil {
				failed++
				continue
			}
			if resp.Route.Replica == victim {
				t.Errorf("iso %v served by killed replica %d", iso, victim)
			}
		}
	}
	// The very first request to a dead replica costs one connect error and
	// fails over within the same request, so nothing should surface.
	if failed > 0 {
		t.Errorf("%d requests failed during failover", failed)
	}
	st := c.Router.Stats()
	if !st.Down[victim] {
		t.Errorf("router has not marked replica %d down: %+v", victim, st)
	}
	if st.Failovers == 0 {
		t.Error("router reports zero failovers though a replica died")
	}
}

// slowBackend is a Backend whose extractions block long enough to pile up.
type slowBackend struct{ delay time.Duration }

func (b slowBackend) ExtractStep(ctx context.Context, step int, iso float32, opts cluster.Options) (*cluster.Result, error) {
	select {
	case <-time.After(b.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return bigBackend{tris: 1}.ExtractStep(ctx, step, iso, opts)
}

// TestSaturationMapsTo503 pins the backpressure contract: a saturated
// replica answers 503 with Retry-After, and a router that finds every
// candidate saturated surfaces serve.ErrSaturated.
func TestSaturationMapsTo503(t *testing.T) {
	ctx := context.Background()
	srv := serve.New(slowBackend{delay: 300 * time.Millisecond}, serve.Config{
		MaxInFlight: 1,
		QueueDepth:  -1, // no queue: the second request is shed immediately
		CacheBytes:  -1, // no cache: every request reaches admission
	})
	rep := NewReplicaServer(srv, ReplicaConfig{})
	if err := rep.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })

	get := func(iso int) (*http.Response, error) {
		return http.Get(fmt.Sprintf("http://%s/mesh?step=0&iso=%d", rep.Addr(), iso))
	}
	done := make(chan error, 1)
	go func() {
		resp, err := get(1)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("first request: %s", resp.Status)
			}
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first request take the only slot
	resp, err := get(2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated replica answered %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After header")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Router over the one saturated replica: ErrSaturated must surface.
	rt, err := NewRouter(RouterConfig{Replicas: []string{rep.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	go get(3) //nolint:errcheck // occupy the slot again
	time.Sleep(50 * time.Millisecond)
	if _, _, err := rt.QueryBytes(ctx, 0, 4); !errors.Is(err, serve.ErrSaturated) {
		t.Fatalf("router error %v, want serve.ErrSaturated", err)
	}
}

// heldBackend is a Backend whose extraction of one isovalue blocks until
// release is closed, announcing on entered that it has begun; every other
// isovalue extracts at once.
type heldBackend struct {
	held             float32
	entered, release chan struct{}
}

func (b heldBackend) ExtractStep(ctx context.Context, step int, iso float32, opts cluster.Options) (*cluster.Result, error) {
	if iso == b.held {
		close(b.entered)
		select {
		case <-b.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return slowBackend{}.ExtractStep(ctx, step, iso, opts)
}

// TestReplicaAdmissionSheds pins the replica's own admission gate
// (ReplicaConfig.MaxInFlight), which sits in front of the query service's:
// with one request held inside a replica, a second concurrent one is shed
// with 503 + Retry-After and counted, and a router whose key lives on that
// replica fails over to the ring successor without an error.
func TestReplicaAdmissionSheds(t *testing.T) {
	ctx := context.Background()
	const held = 40
	backend := heldBackend{held: held, entered: make(chan struct{}), release: make(chan struct{})}
	c, err := StartCluster(backend, ClusterConfig{Replicas: 2, Replica: ReplicaConfig{MaxInFlight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	busy := c.Router.HomeReplica(0, held)
	addr := c.Replicas[busy].Addr()

	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(MeshURL(addr, 0, held))
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("held request: %s", resp.Status)
			}
		}
		done <- err
	}()
	<-backend.entered // the held request occupies the replica's one slot

	resp, err := http.Get(MeshURL(addr, 0, 90))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("second concurrent request: %s, Retry-After %q; want 503 with Retry-After 1",
			resp.Status, resp.Header.Get("Retry-After"))
	}
	sheds := c.Replicas[busy].Server().Metrics().Counter("replica_sheds_total", "")
	if got := sheds.Value(); got != 1 {
		t.Fatalf("replica_sheds_total = %d, want 1", got)
	}

	// A routed request whose home is the busy replica lands on its successor.
	iso := float32(0)
	for v := float32(41); iso == 0; v++ {
		if c.Router.HomeReplica(0, v) == busy {
			iso = v
		}
	}
	routed, err := c.Router.Query(ctx, 0, iso)
	if err != nil {
		t.Fatalf("routed iso %v: %v", iso, err)
	}
	if routed.Route.Replica == busy || routed.Route.Attempts != 2 {
		t.Errorf("route %+v, want the successor of replica %d after 2 attempts", routed.Route, busy)
	}
	if st := c.Router.Stats(); st.Failovers != 1 || st.Down[busy] {
		t.Errorf("router: %d failovers, busy replica down = %v; want 1 and false (busy is not dead)", st.Failovers, st.Down[busy])
	}

	close(backend.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestReplicaDrain takes one replica out gracefully and requires zero
// failed requests while its keys move to ring neighbors: the first request
// that tries the drained replica finds its listener closed, marks it down
// and fails over within the same request.
func TestReplicaDrain(t *testing.T) {
	ctx := context.Background()
	c := startCluster(t, 2, ReplicaConfig{}, RouterConfig{})
	isos := []float32{40, 90, 128, 170}
	homes := 0
	for _, iso := range isos {
		if _, err := c.Router.Query(ctx, 0, iso); err != nil {
			t.Fatalf("warmup iso %v: %v", iso, err)
		}
		if c.Router.HomeReplica(0, iso) == 0 {
			homes++
		}
	}
	if homes == 0 {
		t.Fatal("no key's home is replica 0; pick other isovalues")
	}

	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := c.Replicas[0].Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, iso := range isos {
		resp, err := c.Router.Query(ctx, 0, iso)
		if err != nil {
			t.Errorf("iso %v after drain: %v", iso, err)
			continue
		}
		if resp.Route.Replica == 0 {
			t.Errorf("iso %v served by drained replica", iso)
		}
	}
	if !c.Router.Stats().Down[0] {
		t.Error("router has not marked the drained replica down")
	}
}

// TestReplicaRejectsBadRequests covers the 400 path and that the router
// does not fail over on it. An isovalue no serve.Key holds (NaN, or beyond
// ±2⁶³) parses, but is refused too: such values once shared the bucket −2⁶³
// and were all served the surface at −9.22e18.
func TestReplicaRejectsBadRequests(t *testing.T) {
	c := startCluster(t, 2, ReplicaConfig{}, RouterConfig{})
	for _, q := range []string{"/mesh", "/mesh?iso=abc", "/mesh?iso=1&step=x", "/mesh?iso=1e20", "/mesh?iso=-Inf", "/mesh?iso=NaN"} {
		resp, err := http.Get("http://" + c.Replicas[0].Addr() + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", q, resp.Status)
		}
	}
	for _, iso := range []float32{1e20, -1e20, math.MaxFloat32, float32(math.Inf(1)), float32(math.NaN())} {
		if _, err := c.Router.Query(context.Background(), 0, iso); !errors.Is(err, serve.ErrIsovalue) {
			t.Errorf("routed iso %v: %v, want the router's refusal", iso, err)
		}
	}
	for i, st := range c.Stats() {
		if st.Extractions != 0 {
			t.Errorf("replica %d ran %d extractions for refused requests", i, st.Extractions)
		}
	}
	if st := c.Router.Stats(); st.Failovers != 0 {
		t.Errorf("router failed over %d times on a refused request", st.Failovers)
	}
}

// TestRouterHandlerRefusesIsovalueNoKeyHolds: the router's front end
// answers 400 for an isovalue no serve.Key holds, without asking a replica —
// not 502, and with no replica failure counted.
func TestRouterHandlerRefusesIsovalueNoKeyHolds(t *testing.T) {
	c := startCluster(t, 2, ReplicaConfig{}, RouterConfig{})
	front := serveOnLoopback(t, c.Router.Handler())
	for _, q := range []string{"iso=NaN", "iso=1e20", "iso=-Inf", "step=3&iso=9.3e18"} {
		resp, err := http.Get("http://" + front + "/mesh?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", q, resp.Status)
		}
	}
	if st := c.Router.Stats(); st.Errors != 0 || st.Routed != 0 {
		t.Errorf("router counted %d errors and %d routed requests for refused isovalues", st.Errors, st.Routed)
	}
	for i, rep := range c.Replicas {
		if n := rep.Server().Metrics().Counter("replica_requests_total", "").Value(); n != 0 {
			t.Errorf("replica %d was asked %d times", i, n)
		}
	}
}

// TestMeshURLRoundTrips: the one place that writes a mesh request and the one
// that reads it agree on every float32 — an exponent's '+' must not arrive as
// a space.
func TestMeshURLRoundTrips(t *testing.T) {
	for _, iso := range []float32{
		0, float32(math.Copysign(0, -1)), 128, -37.5, 0.1, 1.0 / 3, 16777217,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1.1754942e-38, // denormals and the smallest normal
		1e20, -1e20, math.MaxFloat32, -math.MaxFloat32,
	} {
		for _, step := range []int{0, 7, -1} {
			url := MeshURL("replica.invalid:80", step, iso)
			gotStep, gotIso, err := parseMeshQuery(httptest.NewRequest(http.MethodGet, url, nil))
			if err != nil {
				t.Errorf("%s: %v", url, err)
				continue
			}
			if gotStep != step || math.Float32bits(gotIso) != math.Float32bits(iso) {
				t.Errorf("%s parsed as step %d iso %v (%#x), want step %d iso %v (%#x)",
					url, gotStep, gotIso, math.Float32bits(gotIso), step, iso, math.Float32bits(iso))
			}
		}
	}
}
