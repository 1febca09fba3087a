package serve

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/meshio"
	"repro/internal/volume"
)

// frameBytes is what a replica would put on the wire for r.
func frameBytes(t *testing.T, r *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.Frame().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sealDirect is the frame of a direct extraction's chunks (KeepChunks), in
// node order: what a replica must send for the same surface.
func sealDirect(t *testing.T, iso float32, res *cluster.Result) []byte {
	t.Helper()
	chunks := make([][]byte, len(res.PerNode))
	for i := range res.PerNode {
		if res.PerNode[i].Chunks == nil && res.PerNode[i].Triangles > 0 {
			t.Fatalf("node %d kept no chunks", i)
		}
		chunks[i] = res.PerNode[i].Chunks
	}
	var buf bytes.Buffer
	meshio.Seal(iso, chunks...).WriteTo(&buf) //nolint:errcheck // bytes.Buffer
	return buf.Bytes()
}

// soupBytes is a result's per-node soups in node order, encoded: equal
// bytes are equal soups, bit for bit.
func soupBytes(t *testing.T, res *cluster.Result) []byte {
	t.Helper()
	meshes, err := res.Meshes()
	if err != nil {
		t.Fatal(err)
	}
	return meshio.AppendBinary(nil, res.Iso, meshes...)
}

// TestFrameBuiltOncePerSurface pins one extraction in flight, piles
// coalesced joiners onto it, then adds cache hits, all through the replica's
// lookup: every response — leader, joiners, hits — gets the same sealed frame
// object and the same shared Result, which holds chunks and no soup, and the
// frame's bytes are the sealed frame of the backend's own chunks.
func TestFrameBuiltOncePerSurface(t *testing.T) {
	fb := &fakeBackend{tris: 500, started: make(chan float32, 1), release: make(chan struct{})}
	s := New(fb, Config{MaxInFlight: 4})

	const joiners, hits = 6, 6
	resps := make([]*Response, 1+joiners+hits)
	errs := make([]error, len(resps))
	var wg sync.WaitGroup
	query := func(k int) {
		defer wg.Done()
		resps[k], errs[k] = s.QueryFrame(context.Background(), 0, 110)
	}
	wg.Add(1)
	go query(0)
	<-fb.started
	for k := 1; k <= joiners; k++ {
		wg.Add(1)
		go query(k)
	}
	waitFor(t, func() bool { return s.Stats().Coalesced == joiners })
	close(fb.release)
	wg.Wait()
	for k := 1 + joiners; k < len(resps); k++ {
		wg.Add(1)
		go query(k)
	}
	wg.Wait()

	var sources [3]int
	for k, r := range resps {
		if errs[k] != nil {
			t.Fatalf("request %d: %v", k, errs[k])
		}
		sources[r.Source]++
		if r.Result != resps[0].Result || r.Result.PerNode[0].Mesh != nil {
			t.Fatalf("request %d (%v) holds its own result, or soup", k, r.Source)
		}
	}
	if sources != [3]int{SourceExtracted: 1, SourceCache: hits, SourceCoalesced: joiners} {
		t.Fatalf("sources (extracted, cache, coalesced) = %v", sources)
	}

	frames := make([]*meshio.Frame, len(resps))
	start := make(chan struct{})
	for k := range resps {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			<-start
			frames[k] = resps[k].Frame()
		}(k)
	}
	close(start)
	wg.Wait()
	for k, f := range frames {
		if f == nil || f != frames[0] {
			t.Fatalf("request %d (%v) got frame %p, the leader got %p", k, resps[k].Source, f, frames[0])
		}
	}
	direct, err := fb.ExtractStep(context.Background(), 0, 110, cluster.Options{KeepChunks: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := frameBytes(t, resps[3]), sealDirect(t, 110, direct); !bytes.Equal(got, want) {
		t.Fatalf("sealed frame (%d bytes) differs from the sealed frame of the backend's chunks (%d bytes)", len(got), len(want))
	}
	if resps[0].Iso != 110 {
		t.Fatalf("served iso %v, want 110", resps[0].Iso)
	}
}

// TestCacheChargesFrameBytes runs one request sequence against two
// identical servers, one asked through Query (which decodes a soup for every
// call) and one through QueryFrame (which never does): Source, CachedBytes,
// CachedMeshes and Evictions agree at every step, the bytes charged are the
// resident surfaces' frame bytes plus the fixed overhead, the decoded soup is
// the backend's own, and an evicted surface takes its frame with it — the
// re-extraction seals a fresh one with the same bytes.
func TestCacheChargesFrameBytes(t *testing.T) {
	const tris = 100
	entryBytes := entryBytes(tris)
	cfg := Config{CacheBytes: 2*entryBytes + entryBytes/2}
	fb := &fakeBackend{tris: tris}
	decoding := New(fb, cfg)
	framed := New(&fakeBackend{tris: tris}, cfg)

	var first *meshio.Frame
	var firstBytes []byte
	// 20 is asked for twice, so 30 evicts 10; 10 comes back over 30; 40 finds
	// 10 re-based on a higher floor than 20 and evicts 20.
	for step, iso := range []float32{10, 20, 20, 30, 10, 10, 40, 20} {
		p, err := decoding.Query(context.Background(), 0, iso)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := fb.ExtractStep(context.Background(), 0, iso, cluster.Options{KeepMeshes: true})
		if !bytes.Equal(soupBytes(t, p.Result), soupBytes(t, want)) {
			t.Fatalf("step %d: Query's decoded soup differs from the backend's", step)
		}
		f, err := framed.QueryFrame(context.Background(), 0, iso)
		if err != nil {
			t.Fatal(err)
		}
		got := frameBytes(t, f)
		if p.Source != f.Source {
			t.Fatalf("step %d iso %v: %v decoding, %v framed", step, iso, p.Source, f.Source)
		}
		ps, fs := decoding.Stats(), framed.Stats()
		if ps != fs {
			t.Fatalf("step %d: stats diverge\ndecoding %+v\nframed   %+v", step, ps, fs)
		}
		if fs.CachedBytes != int64(fs.CachedMeshes)*entryBytes {
			t.Fatalf("step %d: %d cached bytes for %d meshes of %d", step, fs.CachedBytes, fs.CachedMeshes, entryBytes)
		}
		if iso != 10 {
			continue
		}
		switch step {
		case 0:
			first, firstBytes = f.Frame(), got
		case 4: // evicted at step 3: new extraction, new surface, new frame
			if f.Source != SourceExtracted || f.Frame() == first {
				t.Fatalf("evicted surface: source %v, frame reused = %v", f.Source, f.Frame() == first)
			}
			if !bytes.Equal(got, firstBytes) {
				t.Fatal("re-extracted surface seals to different bytes")
			}
			first = f.Frame()
		case 5: // still resident: the hit writes the frame sealed at step 4
			if f.Source != SourceCache || f.Frame() != first {
				t.Fatalf("resident surface: source %v, frame %p, want cache hit of %p", f.Source, f.Frame(), first)
			}
		}
	}
	if ev := framed.Stats().Evictions; ev == 0 {
		t.Fatal("sequence evicted nothing; the test budget is wrong")
	}
}

// TestWarmHitFrameWriteZeroAllocSteadyState is the replica's hot path minus
// the socket: on a warmed surface, fetching the frame and writing it out
// allocates nothing — no frame-sized buffer, no scratch, no pool.
func TestWarmHitFrameWriteZeroAllocSteadyState(t *testing.T) {
	s := New(&fakeBackend{tris: 50000}, Config{})
	if _, err := s.QueryFrame(context.Background(), 0, 110); err != nil {
		t.Fatal(err)
	}
	hit, err := s.QueryFrame(context.Background(), 0, 110)
	if err != nil || hit.Source != SourceCache {
		t.Fatalf("warm query: source %v, err %v", hit.Source, err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := hit.Frame().WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("writing a warmed hit's %d-byte frame allocates %.0f times, want 0", hit.Frame().Len(), allocs)
	}
}

// TestEngineKindsServeTheirSteps puts both cluster engine kinds behind New:
// an Engine answers step 0 and refuses step 1, a TimeVaryingEngine answers
// each indexed step and refuses an unindexed one, and every answer is a
// direct extraction of that step: Query's soup bit for bit, QueryFrame's
// frame the sealed frame of the direct extraction's chunks.
func TestEngineKindsServeTheirSteps(t *testing.T) {
	const iso = 70
	eng, err := cluster.Build(volume.RichtmyerMeshkov(17, 17, 16, 100, 5), cluster.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	tv, err := cluster.BuildTimeVarying(volume.TimeVaryingRM(17, 17, 16, 5), []int{100, 200}, cluster.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		b       Backend
		engines map[int]*cluster.Engine // what each servable step extracts from
		refused int
	}{
		{eng, map[int]*cluster.Engine{0: eng}, 1},
		{tv, tv.Steps, 150},
	} {
		s := New(c.b, Config{})
		for step, e := range c.engines {
			r, err := s.Query(context.Background(), step, iso)
			if err != nil {
				t.Fatalf("%T step %d: %v", c.b, step, err)
			}
			direct, err := e.Extract(context.Background(), iso, cluster.Options{KeepMeshes: true, KeepChunks: true})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(soupBytes(t, r.Result), soupBytes(t, direct)) {
				t.Errorf("%T step %d: served soup differs from a direct extraction's", c.b, step)
			}
			if !bytes.Equal(frameBytes(t, r), sealDirect(t, iso, direct)) {
				t.Errorf("%T step %d: served frame differs from the sealed frame of a direct extraction's chunks", c.b, step)
			}
		}
		if _, err := s.Query(context.Background(), c.refused, iso); err == nil {
			t.Errorf("%T served step %d, which it does not hold", c.b, c.refused)
		}
	}
}
