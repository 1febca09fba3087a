package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/volume"
)

// fakeBackend is a controllable Backend: it can block each extraction until
// released (so tests can pin requests in flight deterministically) and
// produces meshes of a fixed triangle count derived from the isovalue.
type fakeBackend struct {
	calls     atomic.Int64
	started   chan float32  // one send per extraction begun (if non-nil)
	release   chan struct{} // each extraction blocks for one receive (if non-nil)
	tris      int           // triangles per result
	ignoreCtx bool          // keep running through cancellation (slow teardown)
}

func (f *fakeBackend) ExtractStep(ctx context.Context, step int, iso float32, opts cluster.Options) (*cluster.Result, error) {
	f.calls.Add(1)
	if f.started != nil {
		select {
		case f.started <- iso:
		case <-ctx.Done():
			if !f.ignoreCtx {
				return nil, ctx.Err()
			}
			f.started <- iso
		}
	}
	if f.release != nil {
		if f.ignoreCtx {
			<-f.release
		} else {
			select {
			case <-f.release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	im := fakeSurface(iso, f.tris)
	nr := cluster.NodeResult{Triangles: f.tris}
	if opts.KeepMeshes {
		nr.Mesh = im
	}
	if opts.KeepChunks {
		nr.Chunks = make([]byte, meshio.ChunkLen(im))
		meshio.PutChunk(nr.Chunks, im)
	}
	return &cluster.Result{Iso: iso, Triangles: f.tris, PerNode: []cluster.NodeResult{nr}}, nil
}

// fakeSurface is the one batch a fakeBackend extraction welds: tris
// triangles of three vertices each, the first vertex's X the isovalue plus
// the triangle's index.
func fakeSurface(iso float32, tris int) *geom.Mesh {
	im := &geom.Mesh{Verts: make([]geom.Vec3, 3*tris), Idx: make([]uint32, 3*tris)}
	for i := range im.Idx {
		im.Idx[i] = uint32(i)
	}
	for i := 0; i < tris; i++ {
		im.Verts[3*i].X = iso + float32(i)
	}
	return im
}

// entryBytes is what the cache charges for one fakeBackend surface of tris
// triangles: its sealed frame's bytes and the fixed overhead.
func entryBytes(tris int) int64 {
	im := fakeSurface(0, tris)
	chunks := make([]byte, meshio.ChunkLen(im))
	meshio.PutChunk(chunks, im)
	return int64(meshio.Seal(0, chunks).Len()) + entryOverhead
}

// TestCoalescingSingleExtraction pins one extraction in flight and fires K
// concurrent requests in its bucket: exactly one backend call runs, every
// request receives the same result (QueryFrame hands out the shared one;
// Query would decode each a soup of its own), and the counters classify 1
// leader and K-1 coalesced joins.
func TestCoalescingSingleExtraction(t *testing.T) {
	fb := &fakeBackend{tris: 10, started: make(chan float32, 1), release: make(chan struct{})}
	s := New(fb, Config{MaxInFlight: 4})

	const K = 8
	var wg sync.WaitGroup
	resps := make([]*Response, K)
	errs := make([]error, K)
	wg.Add(1)
	go func() { // leader: isovalues 110.2 and 109.9 share bucket 110
		defer wg.Done()
		resps[0], errs[0] = s.QueryFrame(context.Background(), 0, 110.2)
	}()
	<-fb.started // extraction is now pinned in flight
	for k := 1; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resps[k], errs[k] = s.QueryFrame(context.Background(), 0, 109.9)
		}(k)
	}
	// Every follower must be registered as a waiter before release.
	waitFor(t, func() bool { return s.Stats().Coalesced == K-1 })
	close(fb.release)
	wg.Wait()

	for k := 0; k < K; k++ {
		if errs[k] != nil {
			t.Fatalf("request %d: %v", k, errs[k])
		}
		if resps[k].Result != resps[0].Result {
			t.Fatalf("request %d received a different result object", k)
		}
		if resps[k].Iso != 110 {
			t.Errorf("request %d served iso %v, want quantized 110", k, resps[k].Iso)
		}
	}
	if got := fb.calls.Load(); got != 1 {
		t.Errorf("backend ran %d extractions for %d identical requests, want 1", got, K)
	}
	st := s.Stats()
	if st.Extractions != 1 || st.Coalesced != K-1 || st.CacheHits != 0 {
		t.Errorf("stats = %+v, want 1 extraction, %d coalesced, 0 hits", st, K-1)
	}

	// The surface is now cached: the next request in the bucket is a hit.
	r, err := s.QueryFrame(context.Background(), 0, 110.4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != SourceCache || r.Result != resps[0].Result {
		t.Errorf("follow-up request: source %v, want cache hit of the same result", r.Source)
	}
}

// TestCoalescedMeshesByteIdentical drives a real engine of one node and of
// three: K concurrent requests for one isovalue cost one extraction, and the
// served mesh is a direct Engine.Extract's of the same surface, node by node
// and array for array.
func TestCoalescedMeshesByteIdentical(t *testing.T) {
	for _, procs := range []int{1, 3} {
		eng, err := cluster.Build(volume.Sphere(33), cluster.Config{Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		s := New(eng, Config{MaxInFlight: 2})

		const K = 8
		start := make(chan struct{})
		var wg sync.WaitGroup
		resps := make([]*Response, K)
		errs := make([]error, K)
		for k := 0; k < K; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				<-start
				resps[k], errs[k] = s.Query(context.Background(), 0, 128)
			}(k)
		}
		close(start)
		wg.Wait()

		direct, err := eng.Extract(context.Background(), 128, cluster.Options{KeepMeshes: true})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < K; k++ {
			if errs[k] != nil {
				t.Fatalf("procs %d request %d: %v", procs, k, errs[k])
			}
			got, want := resps[k].Result, direct
			if len(got.PerNode) != len(want.PerNode) {
				t.Fatalf("procs %d request %d: %d nodes, want %d", procs, k, len(got.PerNode), len(want.PerNode))
			}
			for n := range got.PerNode {
				if !sameMesh(got.PerNode[n].Mesh, want.PerNode[n].Mesh) {
					t.Fatalf("procs %d request %d node %d: mesh not identical to direct extraction, array for array", procs, k, n)
				}
			}
		}
		st := s.Stats()
		if st.Extractions != 1 {
			t.Errorf("procs %d: %d extractions for %d concurrent identical requests, want 1", procs, st.Extractions, K)
		}
		if st.CacheHits+st.Coalesced != K-1 {
			t.Errorf("procs %d: hits %d + coalesced %d != %d shared requests", procs, st.CacheHits, st.Coalesced, K-1)
		}
	}
}

// TestEvictionUnderBudget holds the cache to two entries' worth of bytes and
// checks eviction keeps it there, with evicted surfaces re-extracted on their
// next request. The surfaces are the same size, so priority is the hit count
// over a rising floor, and equal priorities go least recently used first.
func TestEvictionUnderBudget(t *testing.T) {
	fb := &fakeBackend{tris: 100}
	entryBytes := entryBytes(100)
	s := New(fb, Config{CacheBytes: 2*entryBytes + entryBytes/2})

	for _, iso := range []float32{10, 20, 30} { // all asked for once: 30 evicts 10, the oldest
		if _, err := s.Query(context.Background(), 0, iso); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.CachedMeshes != 2 || st.CachedBytes != 2*entryBytes {
		t.Fatalf("after 3 inserts: %d evictions, %d meshes, %d bytes; want 1, 2, %d",
			st.Evictions, st.CachedMeshes, st.CachedBytes, 2*entryBytes)
	}

	if r, err := s.Query(context.Background(), 0, 20); err != nil || r.Source != SourceCache {
		t.Fatalf("resident surface: source %v err %v, want cache hit", r.Source, err)
	}
	if r, err := s.Query(context.Background(), 0, 10); err != nil || r.Source != SourceExtracted {
		t.Fatalf("evicted surface: source %v err %v, want re-extraction", r.Source, err)
	}
	// 10 came back over 30 (asked for once, before the floor rose), not over
	// 20 (asked for twice).
	if r, err := s.Query(context.Background(), 0, 20); err != nil || r.Source != SourceCache {
		t.Fatalf("twice-asked surface: source %v err %v, want it to outlive the once-asked one", r.Source, err)
	}
	if got := fb.calls.Load(); got != 4 {
		t.Errorf("backend calls = %d, want 4 (3 cold + 1 re-extraction)", got)
	}
}

// TestOversizedResultNotCached: a result bigger than the whole budget is
// served but never admitted to the cache.
func TestOversizedResultNotCached(t *testing.T) {
	fb := &fakeBackend{tris: 1000}
	s := New(fb, Config{CacheBytes: entryBytes(1000) / 100})
	for i := 0; i < 2; i++ {
		r, err := s.Query(context.Background(), 0, 50)
		if err != nil {
			t.Fatal(err)
		}
		if r.Source != SourceExtracted {
			t.Fatalf("query %d: source %v, want extraction every time", i, r.Source)
		}
	}
	if st := s.Stats(); st.CachedMeshes != 0 || st.CachedBytes != 0 {
		t.Errorf("oversized result was cached: %+v", st)
	}
}

// TestRejectWhenSaturated fills the single extraction slot and the
// depth-1 queue, then checks the next distinct request is shed with
// ErrSaturated while the queued one still completes.
func TestRejectWhenSaturated(t *testing.T) {
	fb := &fakeBackend{tris: 1, started: make(chan float32, 2), release: make(chan struct{}, 2)}
	s := New(fb, Config{MaxInFlight: 1, QueueDepth: 1})

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); _, errs[0] = s.Query(context.Background(), 0, 10) }()
	<-fb.started // request A holds the slot
	wg.Add(1)
	go func() { defer wg.Done(); _, errs[1] = s.Query(context.Background(), 0, 20) }()
	waitFor(t, func() bool { return s.Stats().Queued == 1 }) // request B waits

	if _, err := s.Query(context.Background(), 0, 30); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third distinct request returned %v, want ErrSaturated", err)
	}
	// Saturation must not shed work that shares an in-flight key.
	joined := make(chan error, 1)
	go func() { _, err := s.Query(context.Background(), 0, 10); joined <- err }()

	fb.release <- struct{}{}
	fb.release <- struct{}{}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("held requests failed: %v, %v", errs[0], errs[1])
	}
	if err := <-joined; err != nil {
		t.Fatalf("coalesced-while-saturated request failed: %v", err)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Extractions != 2 {
		t.Errorf("rejected %d, extractions %d; want 1, 2", st.Rejected, st.Extractions)
	}
}

// TestIsovalueOutOfRange: an isovalue whose bucket would overflow int64 is
// refused before the cache, coalescing or the backend see it — such values
// once all shared the bucket −2⁶³ and were served the surface at −9.22e18 —
// while the largest float32 on either side of the bound keeps its own key.
func TestIsovalueOutOfRange(t *testing.T) {
	fb := &fakeBackend{tris: 1}
	s := New(fb, Config{})
	bound := float32(1 << 63)
	for _, iso := range []float32{
		1e20, -1e20, math.MaxFloat32, -math.MaxFloat32, bound, -bound, 9.3e18,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	} {
		if _, err := s.Query(context.Background(), 0, iso); !errors.Is(err, ErrIsovalue) {
			t.Errorf("Query(%v) = %v, want ErrIsovalue", iso, err)
		}
	}
	if n := fb.calls.Load(); n != 0 {
		t.Errorf("backend ran %d extractions for refused isovalues", n)
	}
	if st := s.Stats(); st.Requests != 0 || st.Extractions != 0 {
		t.Errorf("refused isovalues reached the server: %+v", st)
	}
	for _, iso := range []float32{math.Nextafter32(bound, 0), -math.Nextafter32(bound, 0)} {
		r, err := s.Query(context.Background(), 0, iso)
		if err != nil {
			t.Fatalf("Query(%v): %v", iso, err)
		}
		if r.Iso != iso || r.Key != KeyOf(0, iso) || r.Key.Bucket != int64(iso) {
			t.Errorf("Query(%v) served key %+v at iso %v", iso, r.Key, r.Iso)
		}
	}
}

// TestCancellationReachesBackend cancels the only waiter of an in-flight
// extraction and checks the cancel propagates into the backend's context,
// the request returns ctx's error, and the key is re-extractable afterwards.
func TestCancellationReachesBackend(t *testing.T) {
	fb := &fakeBackend{tris: 1, started: make(chan float32, 2), release: make(chan struct{}, 2)}
	s := New(fb, Config{MaxInFlight: 1})

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { _, err := s.Query(ctx, 0, 10); got <- err }()
	<-fb.started
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request returned %v, want context.Canceled", err)
	}
	// The abandoned extraction's own context dies with its last waiter, so
	// the in-flight slot drains without any release.
	waitFor(t, func() bool {
		st := s.Stats()
		return st.InFlight == 0 && st.Queued == 0
	})

	fb.release <- struct{}{}
	r, err := s.Query(context.Background(), 0, 10)
	if err != nil {
		t.Fatalf("re-query after cancellation: %v", err)
	}
	if r.Source != SourceExtracted {
		t.Errorf("re-query source %v: a cancelled extraction must not be cached", r.Source)
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Errorf("canceled counter = %d, want 1", st.Canceled)
	}
}

// TestCancelWhileQueued cancels a request that never got an extraction slot.
func TestCancelWhileQueued(t *testing.T) {
	fb := &fakeBackend{tris: 1, started: make(chan float32, 1), release: make(chan struct{}, 1)}
	s := New(fb, Config{MaxInFlight: 1, QueueDepth: 4})

	first := make(chan error, 1)
	go func() { _, err := s.Query(context.Background(), 0, 10); first <- err }()
	<-fb.started

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() { _, err := s.Query(ctx, 0, 20); queued <- err }()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued request returned %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return s.Stats().Queued == 0 })

	fb.release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatalf("running request failed after queued cancel: %v", err)
	}
	if got := fb.calls.Load(); got != 1 {
		t.Errorf("backend calls = %d, want 1 (queued request never ran)", got)
	}
}

// TestJoinAfterAbandonStartsFresh: a request that arrives while a
// fully-abandoned extraction is still draining must not join it (it would
// inherit the dying call's context.Canceled) — it starts a fresh one.
func TestJoinAfterAbandonStartsFresh(t *testing.T) {
	fb := &fakeBackend{tris: 1, started: make(chan float32, 2), release: make(chan struct{}, 2), ignoreCtx: true}
	s := New(fb, Config{MaxInFlight: 2})

	ctx1, cancel1 := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() { _, err := s.Query(ctx1, 0, 10); abandoned <- err }()
	<-fb.started
	cancel1()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning request returned %v", err)
	}
	// The call is now waiterless and cancelled but its backend (which
	// ignores ctx) is still running. A live request for the same key:
	type out struct {
		r   *Response
		err error
	}
	fresh := make(chan out, 1)
	go func() {
		r, err := s.Query(context.Background(), 0, 10)
		fresh <- out{r, err}
	}()
	<-fb.started // a second extraction began: the request did not join
	fb.release <- struct{}{}
	fb.release <- struct{}{}
	got := <-fresh
	if got.err != nil {
		t.Fatalf("live request inherited the dying call's fate: %v", got.err)
	}
	if got.r.Source != SourceExtracted {
		t.Errorf("source = %v, want a fresh extraction", got.r.Source)
	}
	if n := fb.calls.Load(); n != 2 {
		t.Errorf("backend calls = %d, want 2", n)
	}
}

// TestServeStress exercises the full surface concurrently against a real
// engine — hot Zipf-ish key reuse, cancellations, saturation — under -race.
func TestServeStress(t *testing.T) {
	eng, err := cluster.Build(volume.Sphere(33), cluster.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{
		MaxInFlight: 2,
		QueueDepth:  2,
		CacheBytes:  1 << 20, // small enough to evict
	})
	const workers = 8
	var wg sync.WaitGroup
	var served, rejected, canceled atomic.Int64
	fail := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if rnd.Intn(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rnd.Intn(200))*time.Microsecond)
				}
				_, err := s.Query(ctx, 0, float32(8*rnd.Intn(32))) // 32 keys: hot reuse
				cancel()
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrSaturated):
					rejected.Add(1)
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					canceled.Add(1)
				default:
					fail <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	// A client that gives up returns at once; the extraction it abandoned is
	// in flight until its pipeline notices, a moment later.
	var st Stats
	waitFor(t, func() bool {
		st = s.Stats()
		return st.InFlight == 0 && st.Queued == 0
	})
	if total := served.Load() + rejected.Load() + canceled.Load(); total != workers*40 {
		t.Errorf("outcomes %d != requests %d", total, workers*40)
	}
	if st.Requests != workers*40 {
		t.Errorf("server counted %d requests, want %d", st.Requests, workers*40)
	}
	if served.Load() > 0 && st.Extractions == 0 && st.CacheHits == 0 {
		t.Errorf("served %d requests with no extractions or hits: %+v", served.Load(), st)
	}
}

// waitFor polls cond for up to 2 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}

// meshOnlyBackend ignores KeepChunks: it answers every extraction with a
// mesh, the form the server never caches.
type meshOnlyBackend struct{}

func (meshOnlyBackend) ExtractStep(_ context.Context, _ int, iso float32, _ cluster.Options) (*cluster.Result, error) {
	return &cluster.Result{Iso: iso, Triangles: 1, PerNode: []cluster.NodeResult{{
		Triangles: 1, Mesh: fakeSurface(iso, 1),
	}}}, nil
}

// sameMesh reports whether two meshes hold the same arrays, vertex bits and
// indices alike, and expand to the same soup bit for bit.
func sameMesh(a, b *geom.Mesh) bool {
	bits := func(vs []geom.Vec3) []uint32 {
		var out []uint32
		for _, v := range vs {
			out = append(out, math.Float32bits(v.X), math.Float32bits(v.Y), math.Float32bits(v.Z))
		}
		return out
	}
	soup := func(m *geom.Mesh) []geom.Vec3 {
		var out []geom.Vec3
		for _, t := range m.ExpandSoup() {
			out = append(out, t.A, t.B, t.C)
		}
		return out
	}
	return slices.Equal(a.Idx, b.Idx) && slices.Equal(bits(a.Verts), bits(b.Verts)) && slices.Equal(bits(soup(a)), bits(soup(b)))
}

// TestBackendWithoutChunksIsRefused: a result with triangles and no chunks is
// an error, not an empty surface served and cached.
func TestBackendWithoutChunksIsRefused(t *testing.T) {
	s := New(meshOnlyBackend{}, Config{})
	if _, err := s.QueryFrame(context.Background(), 0, 10); err == nil || !strings.Contains(err.Error(), "no chunks") {
		t.Fatalf("err = %v, want the refusal of a result without chunks", err)
	}
	if st := s.Stats(); st.CachedMeshes != 0 || st.Extractions != 0 {
		t.Errorf("stats = %+v, want nothing cached or counted", st)
	}
}
