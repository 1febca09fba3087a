package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
)

// chaosClient builds an HTTP client whose transport runs through a fresh
// chaos injector, for routers that must survive injected faults.
func chaosClient(seed uint64) (*http.Client, *chaos.Injector) {
	in := chaos.NewInjector(seed)
	return &http.Client{Transport: in.Transport(NewTransport())}, in
}

// TestHedgingBeatsSlowReplica pins the hedged request path: when the home
// shard stalls, the hedge to the ring successor answers first, the client
// sees the byte-identical frame well before the stall clears, and the slow
// replica is not marked down (slow is not dead).
func TestHedgingBeatsSlowReplica(t *testing.T) {
	ctx := context.Background()
	client, in := chaosClient(21)
	c := startCluster(t, 3, ReplicaConfig{}, RouterConfig{
		HedgeAfter: 30 * time.Millisecond,
		Client:     client,
	})
	const iso = 128
	want, _, err := c.Router.QueryBytes(ctx, 0, iso)
	if err != nil {
		t.Fatal(err)
	}
	home := c.Router.HomeReplica(0, iso)

	in.SetFault(c.Replicas[home].Addr(), chaos.Fault{Latency: 2 * time.Second})
	qctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	start := time.Now()
	frame, route, err := c.Router.QueryBytes(qctx, 0, iso)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Fatal("hedged frame differs from the home shard's")
	}
	if route.Replica == home {
		t.Fatalf("request served by the stalled home %d; hedge never won", home)
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("request took %v — it waited out the stall instead of hedging", elapsed)
	}
	st := c.Router.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge counters: launched %d, won %d", st.Hedges, st.HedgeWins)
	}
	if st.Down[home] {
		t.Error("slow replica was marked down; slow is not dead")
	}
}

// TestCorruptFrameRetriesOnSuccessor pins the checksum path end to end: a
// replica whose responses are byte-corrupted in flight is rejected by frame
// verification and the request retries on the ring successor, so the client
// still receives the intact frame.
func TestCorruptFrameRetriesOnSuccessor(t *testing.T) {
	ctx := context.Background()
	client, in := chaosClient(22)
	c := startCluster(t, 3, ReplicaConfig{}, RouterConfig{
		Client: client,
	})
	const iso = 128
	want, _, err := c.Router.QueryBytes(ctx, 0, iso)
	if err != nil {
		t.Fatal(err)
	}
	home := c.Router.HomeReplica(0, iso)

	in.SetFault(c.Replicas[home].Addr(), chaos.Fault{CorruptProb: 1})
	frame, route, err := c.Router.QueryBytes(ctx, 0, iso)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Fatal("client received a frame that differs from the intact one")
	}
	if route.Replica == home {
		t.Fatalf("corrupted home %d served the request", home)
	}
	if route.Attempts < 2 {
		t.Fatalf("route reports %d attempts, corruption must cost at least one retry", route.Attempts)
	}
	st := c.Router.Stats()
	if st.CorruptFrames == 0 {
		t.Error("router counted no corrupt frames")
	}
	if st.Failovers == 0 {
		t.Error("router counted no failovers")
	}

	// The same fault reaches a client that fetches through the injector with
	// no router in the path — the naive client the chaos harness compares
	// against.
	resp, err := client.Get(MeshURL(c.Replicas[home].Addr(), 0, iso))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("a corrupting injector should pass a whole 200 response through, got %s, %v", resp.Status, err)
	}
	if len(got) != len(want) || bytes.Equal(got, want) {
		t.Fatalf("injector corrupted nothing: %d bytes read, %d expected, equal = %v", len(got), len(want), bytes.Equal(got, want))
	}
}

// TestFailedReplicaStaysDownForItsCooldown pins that only a request's own
// outcome moves a replica's health: a home replica that corrupts every frame
// costs one corrupt frame and one failover, and then stays out of rotation
// for its whole cooldown however long the requests keep coming — nothing
// else, such as a /healthz answer, puts it back early.
func TestFailedReplicaStaysDownForItsCooldown(t *testing.T) {
	ctx := context.Background()
	client, in := chaosClient(24)
	c := startCluster(t, 3, ReplicaConfig{}, RouterConfig{
		DownCooldown: time.Minute,
		Client:       client,
	})
	const iso = 128
	home := c.Router.HomeReplica(0, iso)
	in.SetFault(c.Replicas[home].Addr(), chaos.Fault{CorruptProb: 1})

	// 20 requests spread over 400 ms: anything that put the home back in that
	// time would show as a second corrupt frame.
	for i := 0; i < 20; i++ {
		frame, route, err := c.Router.QueryBytes(ctx, 0, iso)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if route.Replica == home {
			t.Fatalf("request %d served by the corrupting home %d", i, home)
		}
		c.Router.Recycle(frame)
		time.Sleep(20 * time.Millisecond)
	}
	st := c.Router.Stats()
	if st.CorruptFrames != 1 || st.Failovers != 1 {
		t.Errorf("%d corrupt frames and %d failovers, want 1 and 1: the home was tried again inside its cooldown",
			st.CorruptFrames, st.Failovers)
	}
	if !st.Down[home] {
		t.Error("home no longer down inside its one-minute cooldown")
	}
}

// TestBackoffRespectsDeadline pins the saturation-retry bound: with a short
// caller deadline, the router backs off and retries but gives up by the
// deadline instead of sleeping past it.
func TestBackoffRespectsDeadline(t *testing.T) {
	srv := serve.New(slowBackend{delay: 3 * time.Second}, serve.Config{
		MaxInFlight: 1,
		QueueDepth:  -1,
		CacheBytes:  -1,
	})
	rep := NewReplicaServer(srv, ReplicaConfig{})
	if err := rep.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })

	// Occupy the only slot so every routed attempt is shed.
	hold, holdCancel := context.WithCancel(context.Background())
	defer holdCancel()
	go func() {
		req, _ := http.NewRequestWithContext(hold, http.MethodGet,
			fmt.Sprintf("http://%s/mesh?step=0&iso=1", rep.Addr()), nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond)

	rt, err := NewRouter(RouterConfig{Replicas: []string{rep.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = rt.QueryBytes(ctx, 0, 2)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against a pinned-saturated replica succeeded")
	}
	if !errors.Is(err, serve.ErrSaturated) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want saturated or deadline", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("router held the request %v past a 400ms deadline", elapsed)
	}
	if rt.Stats().Retries == 0 {
		t.Error("router never backed off inside the caller's deadline")
	}

	// The SaturatedError carries the replica's Retry-After hint so front
	// ends can forward it instead of inventing one.
	var se *SaturatedError
	if errors.As(err, &se) {
		if se.RetryAfter != time.Second {
			t.Errorf("SaturatedError.RetryAfter = %v, want the replica's 1s hint", se.RetryAfter)
		}
		if se.Attempts == 0 {
			t.Error("SaturatedError.Attempts = 0")
		}
	}
}

// TestRetryAfterPropagatesThroughHandler pins the relay contract: the
// router front-end forwards the replicas' Retry-After hint on 503 rather
// than hardcoding its own.
func TestRetryAfterPropagatesThroughHandler(t *testing.T) {
	saturated := serveOnLoopback(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "saturated", http.StatusServiceUnavailable)
	}))
	rt, err := NewRouter(RouterConfig{Replicas: []string{saturated}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := serveOnLoopback(t, rt.Handler())
	resp, err := http.Get("http://" + front + "/mesh?step=0&iso=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("front-end answered %s, want 503", resp.Status)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("front-end Retry-After = %q, want the replica's hint \"7\"", got)
	}
}

// TestPassiveRevival pins the DownCooldown contract: a replica marked down by
// a transient fault rejoins rotation once the cooldown elapses and a request
// to it succeeds.
func TestPassiveRevival(t *testing.T) {
	ctx := context.Background()
	client, in := chaosClient(23)
	c := startCluster(t, 2, ReplicaConfig{}, RouterConfig{
		DownCooldown: 400 * time.Millisecond,
		Client:       client,
	})
	const iso = 128
	if _, _, err := c.Router.QueryBytes(ctx, 0, iso); err != nil {
		t.Fatal(err)
	}
	home := c.Router.HomeReplica(0, iso)

	// A transient connection-drop fault knocks the home shard out.
	in.SetFault(c.Replicas[home].Addr(), chaos.Fault{DropProb: 1})
	route := func() Route {
		_, r, err := c.Router.QueryBytes(ctx, 0, iso)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := route(); r.Replica == home {
		t.Fatalf("faulted home %d served the request", home)
	}
	if !c.Router.Stats().Down[home] {
		t.Fatal("home was not marked down after a connection drop")
	}

	// Fault clears, but inside the cooldown the home stays benched.
	in.SetFault(c.Replicas[home].Addr(), chaos.Fault{})
	if r := route(); r.Replica == home {
		t.Error("request reached the home shard inside its cooldown")
	}

	// Past the cooldown, a live request revives it.
	time.Sleep(500 * time.Millisecond)
	if r := route(); r.Replica != home {
		t.Fatalf("after cooldown the home shard %d should serve again, got %d", home, r.Replica)
	}
	st := c.Router.Stats()
	if st.Revived == 0 {
		t.Error("router counted no passive revivals")
	}
	if st.Down[home] {
		t.Error("home still reported down after serving a request")
	}
}
