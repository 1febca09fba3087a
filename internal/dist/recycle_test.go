package dist

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/meshio"
)

// bigBackend serves a synthetic surface of tris triangles per isovalue with
// no extraction behind it: frames of a chosen size, so the tests below can
// make a frame's allocation stand out against the HTTP exchange around it.
// It is welded the way the engine's surfaces are — batches of up to 50 000
// triangles over 0.64 as many vertices, so 16-bit indices, every vertex a
// fraction along a scattered axis from an integer grid point, so grid-form
// chunks — and its frames hold as many bytes a triangle as real ones.
type bigBackend struct{ tris int }

func (b bigBackend) batches(iso float32) []*geom.IndexedMesh {
	var out []*geom.IndexedMesh
	for done := 0; done < b.tris; {
		n := min(50_000, b.tris-done)
		im := &geom.IndexedMesh{Verts: make([]geom.Vec3, max(n*16/25, 3)), Idx: make([]uint32, 3*n)}
		for i := range im.Verts {
			k := uint32(done + i)
			p := [3]float32{float32(k % 128), float32(k / 128 % 128), float32(k / 16384)}
			p[k*2654435761>>16%3] += iso / 16
			im.Verts[i] = geom.V(p[0], p[1], p[2])
		}
		for i := range im.Idx {
			im.Idx[i] = uint32((i/3*16/25 + i%3) % len(im.Verts))
		}
		out = append(out, im)
		done += n
	}
	return out
}

// mesh is the surface as the client decodes it: the batches, expanded.
func (b bigBackend) mesh(iso float32) *geom.Mesh {
	m := &geom.Mesh{}
	for _, im := range b.batches(iso) {
		im.ExpandInto(m)
	}
	return m
}

// chunks is the surface as a replica caches and sends it.
func (b bigBackend) chunks(iso float32) []byte {
	var buf []byte
	for _, im := range b.batches(iso) {
		at := len(buf)
		buf = append(buf, make([]byte, meshio.ChunkLen(im))...)
		meshio.PutChunk(buf[at:], im)
	}
	return buf
}

// frame is the bytes a replica writes for the surface.
func (b bigBackend) frame(iso float32) []byte {
	var buf bytes.Buffer
	meshio.Seal(iso, b.chunks(iso)).WriteTo(&buf) //nolint:errcheck // bytes.Buffer
	return buf.Bytes()
}

func (b bigBackend) ExtractStep(_ context.Context, _ int, iso float32, opts cluster.Options) (*cluster.Result, error) {
	nr := cluster.NodeResult{Triangles: b.tris}
	if opts.KeepMeshes {
		nr.Mesh = b.mesh(iso)
	}
	if opts.KeepChunks {
		nr.Chunks = b.chunks(iso)
	}
	return &cluster.Result{Iso: iso, Triangles: b.tris, PerNode: []cluster.NodeResult{nr}}, nil
}

func startBigCluster(t testing.TB, n, tris int, rtcfg RouterConfig) *Cluster {
	t.Helper()
	c, err := StartCluster(bigBackend{tris}, ClusterConfig{Replicas: n, Router: rtcfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// waitGoroutines fails the test unless the goroutine count is back at (or
// under) before within two seconds: a hedge's losing attempt outlives its
// Query, but only until its cancelled read returns.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestHedgeLoserNeverWritesARecycledFrame is the ownership rule under the
// one flow where an attempt outlives its request: home and hedge race within
// a jitter of each other, so the loser is cancelled before it connects, in
// the middle of its read, or after it has a whole frame nobody will take.
// Every winner's frame is checked, scribbled over and recycled, so a loser
// still writing a buffer that went back to the list — or a buffer handed to
// two clients at once — shows as wrong bytes here and as a race under -race.
func TestHedgeLoserNeverWritesARecycledFrame(t *testing.T) {
	const (
		iso     = 77
		tris    = 30_000 // ~1 MB: a read long enough to be cancelled inside
		clients = 3
		rounds  = 40
	)
	want := bigBackend{tris}.frame(iso)
	in, base := chaos.NewInjector(31), NewTransport()
	c := startBigCluster(t, 3, tris, RouterConfig{
		HedgeAfter: time.Millisecond,
		Client:     &http.Client{Transport: in.Transport(base)},
	})
	ctx := context.Background()
	before := runtime.NumGoroutine() // no connection is open yet
	home := c.Router.HomeReplica(0, iso)
	in.SetFault(c.Replicas[home].Addr(), chaos.Fault{Latency: 500 * time.Microsecond, Jitter: 3 * time.Millisecond})

	var (
		mu   sync.Mutex
		live = map[*byte]bool{} // first byte of every frame a client holds
		wg   sync.WaitGroup
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				frame, route, err := c.Router.QueryBytes(ctx, 0, iso)
				if err != nil {
					t.Error(err)
					return
				}
				base := &frame[0]
				mu.Lock()
				twice := live[base]
				live[base] = true
				mu.Unlock()
				if twice {
					t.Errorf("round %d: a frame another client still holds was handed out again", round)
					return
				}
				if !bytes.Equal(frame, want) {
					t.Errorf("round %d (replica %d): routed frame differs from the backend's", round, route.Replica)
					return
				}
				for i := range frame {
					frame[i] = 0xa5
				}
				mu.Lock()
				delete(live, base)
				mu.Unlock()
				c.Router.Recycle(frame)
			}
		}()
	}
	wg.Wait()
	st := c.Router.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 || st.HedgeWins == st.Routed {
		t.Errorf("%d routed, %d hedges, %d hedge wins: the race was never run both ways", st.Routed, st.Hedges, st.HedgeWins)
	}
	base.CloseIdleConnections() // what is left then is a leak, not a pooled connection
	waitGoroutines(t, before)
	if n, _ := c.Router.frames.size(); n == 0 {
		t.Error("free list is empty after every frame was recycled")
	}
}

// TestFailedAttemptsGiveTheirBuffersBack: an attempt that got as far as
// taking a buffer and then failed — frame rejected, or connection cut
// mid-body — puts it back itself; the request's answer comes from the
// successor in a buffer of its own.
func TestFailedAttemptsGiveTheirBuffersBack(t *testing.T) {
	ctx := context.Background()
	const iso = 128
	want := directFrame(t, iso)
	for _, tc := range []struct {
		name    string
		fault   chaos.Fault
		corrupt int64
	}{
		{"corrupt", chaos.Fault{CorruptProb: 1}, 1},
		{"truncated", chaos.Fault{TruncateProb: 1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, in := chaosClient(24)
			c := startCluster(t, 2, ReplicaConfig{}, RouterConfig{Client: client})
			home := c.Router.HomeReplica(0, iso)
			in.SetFault(c.Replicas[home].Addr(), tc.fault)

			// Alone, the faulted replica fails the request and the attempt's
			// buffer is all there is to find afterwards.
			alone, err := NewRouter(RouterConfig{Replicas: []string{c.Replicas[home].Addr()}, Client: client})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(alone.Close)
			if _, _, err := alone.QueryBytes(ctx, 0, iso); !errors.Is(err, ErrNoReplicas) {
				t.Fatalf("err = %v from a router over the faulted replica alone, want ErrNoReplicas", err)
			}
			if n, b := alone.frames.size(); n != 1 || b < len(want) {
				t.Fatalf("free list holds %d buffers / %d bytes after one failed attempt, want 1 / ≥ %d", n, b, len(want))
			}
			if got := alone.Stats().CorruptFrames; got != tc.corrupt {
				t.Errorf("%d corrupt frames counted, want %d", got, tc.corrupt)
			}
			if got := alone.reg.Histogram("router_frame_read_seconds", "").Count(); got != tc.corrupt {
				t.Errorf("router_frame_read_seconds has %d observations, want %d (frames read to a verdict)", got, tc.corrupt)
			}

			// With a successor, the retry reads the good frame into the very
			// buffer the bad one was in, and none of the bad bytes survive.
			frame, route, err := c.Router.QueryBytes(ctx, 0, iso)
			if err != nil {
				t.Fatal(err)
			}
			if route.Replica == home || !bytes.Equal(frame, want) {
				t.Fatalf("served by %d (faulted home %d), frame intact = %v", route.Replica, home, bytes.Equal(frame, want))
			}
			if n, _ := c.Router.frames.size(); n != 0 {
				t.Errorf("%d buffers on the free list: the successor's attempt did not reuse the failed one's", n)
			}
			c.Router.Recycle(frame)
			if n, _ := c.Router.frames.size(); n != 1 {
				t.Errorf("%d buffers on the free list after the caller recycled, want 1", n)
			}
		})
	}
}

// TestMalformedPrefixIsACorruptFrame: a replica that answers 200 with a
// length prefix no frame can have has sent a corrupt frame — counted and
// reported as one, and never mistaken for an I/O failure or an attempt
// timeout.
func TestMalformedPrefixIsACorruptFrame(t *testing.T) {
	for name, body := range map[string][]byte{
		"below header size": {3, 0, 0, 0, 'I', 'S', 'O'},
		"exceeds limit":     {0xff, 0xff, 0xff, 0xff, 'I', 'S', 'O', 'M'},
	} {
		bad := serveOnLoopback(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write(body) //nolint:errcheck
		}))
		rt, err := NewRouter(RouterConfig{Replicas: []string{bad}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		_, _, err = rt.QueryBytes(context.Background(), 0, 1)
		if !errors.Is(err, ErrNoReplicas) || !strings.Contains(err.Error(), "frame rejected") {
			t.Errorf("%s: err = %v, want ErrNoReplicas naming a rejected frame", name, err)
		}
		if st := rt.Stats(); st.CorruptFrames != 1 || st.AttemptTimeouts != 0 || !st.Down[0] {
			t.Errorf("%s: %d corrupt frames, %d attempt timeouts, down=%v; want 1, 0, true",
				name, st.CorruptFrames, st.AttemptTimeouts, st.Down[0])
		}
		if n, _ := rt.frames.size(); n != 0 {
			t.Errorf("%s: %d buffers on the free list though none was ever taken", name, n)
		}
	}
}

// countedConn tells its dialer's counter when it is closed.
type countedConn struct {
	net.Conn
	open   *atomic.Int64
	closed sync.Once
}

func (c *countedConn) Close() error {
	c.closed.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// TestCloseReachesAWrappedTransport: a router whose client wraps the pooled
// transport in other round trippers — the chaos injector here, a byte counter
// in the benchmark — still closes its keep-alive connections on Close. The
// replicas stay up, so nothing else would: a connection left pooled keeps its
// two client goroutines and the replica's serving one until the idle timer.
func TestCloseReachesAWrappedTransport(t *testing.T) {
	var open atomic.Int64
	base := NewTransport()
	base.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		open.Add(1)
		return &countedConn{Conn: conn, open: &open}, nil
	}
	client := &http.Client{Transport: chaos.NewInjector(25).Transport(base)}
	c := startCluster(t, 2, ReplicaConfig{}, RouterConfig{Client: client})
	before := runtime.NumGoroutine() // no connection is open yet
	for _, iso := range []float32{64, 128, 150, 200} {
		if _, _, err := c.Router.QueryBytes(context.Background(), 0, iso); err != nil {
			t.Fatal(err)
		}
	}
	if open.Load() == 0 {
		t.Fatal("no connection is pooled after four requests; the test has nothing to watch")
	}
	c.Router.Close()
	if n := open.Load(); n != 0 {
		t.Errorf("%d connections still open after Close", n)
	}
	waitGoroutines(t, before)
}

// allocPerRequest runs n routed hits through query and returns the bytes
// the process allocated per request (TotalAlloc: garbage counts, live or not).
func allocPerRequest(t testing.TB, n int, query func() error) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := query(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestRecycleZeroAllocSteadyState is the allocation gate for the give-back:
// a caller that recycles each frame makes the tier — router, HTTP exchange
// and replica together — allocate less than 5 % of a frame per warmed hit;
// Router.Query, whose caller keeps a mesh, pays one soup of its own and no
// frame (it recycles the frame it decoded from before it returns).
func TestRecycleZeroAllocSteadyState(t *testing.T) {
	const iso, tris = 5, 800_000
	c := startBigCluster(t, 1, tris, RouterConfig{})
	frame, soup := float64(len(bigBackend{tris}.frame(iso))), float64(36*tris)
	if frame < 8<<20 {
		t.Fatalf("test frame is %.0f bytes, want at least 8 MiB", frame)
	}
	ctx := context.Background()
	recycle := func() error {
		frame, _, err := c.Router.QueryBytes(ctx, 0, iso)
		c.Router.Recycle(frame)
		return err
	}
	query := func() error {
		_, err := c.Router.Query(ctx, 0, iso)
		return err
	}
	allocPerRequest(t, 3, recycle) // extract, seal, fill connection pools and the free list
	if got := allocPerRequest(t, 20, recycle); got > 0.05*frame {
		t.Errorf("recycling caller: %.0f bytes allocated per request, want under 5 %% of the %.0f-byte frame", got, frame)
	}
	if got := allocPerRequest(t, 20, query); got < 0.95*soup || got > soup+0.5*frame {
		t.Errorf("Router.Query: %.0f bytes allocated per request, want one %.0f-byte soup and no %.0f-byte frame", got, soup, frame)
	}
}

// BenchmarkRoutedHit measures the tier's hot path over real loopback
// sockets: one replica with the surface cached and sealed, the repository
// benchmark's mean surface of 890 000 triangles (a 9.9 MB frame of grid
// vertices, 11.1 B a triangle; a 32 MB soup). query is Router.Query — the
// frame decoded into a soup of the caller's own and recycled, so B/op is one
// soup and one vertex scratch of the largest chunk's vertices; bytes is
// QueryBytes with the frame handed back when done — the relay path, B/op the
// HTTP exchange alone. MB/s is frame bytes delivered, frame-B/tri their size
// per triangle.
func BenchmarkRoutedHit(b *testing.B) {
	const iso, tris = 5, 890_000
	c := startBigCluster(b, 1, tris, RouterConfig{})
	ctx := context.Background()
	frame, _, err := c.Router.QueryBytes(ctx, 0, iso)
	if err != nil {
		b.Fatal(err)
	}
	frameBytes := len(frame)
	c.Router.Recycle(frame) // steady state: the free list already holds a frame
	for _, name := range []string{"query", "bytes"} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(frameBytes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if name == "query" {
					resp, err := c.Router.Query(ctx, 0, iso)
					if err != nil {
						b.Fatal(err)
					}
					if resp.Route.Source != "cache" || resp.Mesh.Len() != tris {
						b.Fatalf("request %d: source %q, %d triangles", i, resp.Route.Source, resp.Mesh.Len())
					}
					continue
				}
				frame, route, err := c.Router.QueryBytes(ctx, 0, iso)
				if err != nil {
					b.Fatal(err)
				}
				if route.Source != "cache" || len(frame) != frameBytes {
					b.Fatalf("request %d: source %q, %d bytes", i, route.Source, len(frame))
				}
				c.Router.Recycle(frame)
			}
			b.ReportMetric(float64(frameBytes)/tris, "frame-B/tri")
		})
	}
}
