package repro

import (
	"context"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func TestQuickstartPipeline(t *testing.T) {
	vol := GenerateRM(33, 33, 30, 250, 1)
	eng, err := Preprocess(vol, Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Extract(context.Background(), 190, Options{KeepMeshes: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles == 0 {
		t.Fatal("no triangles")
	}
	img, err := RenderComposite(res, 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	if img.CoveredPixels() == 0 {
		t.Error("composited image empty")
	}
	path := filepath.Join(t.TempDir(), "out.ppm")
	if err := img.WritePPMFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestRenderCompositeRequiresMeshes(t *testing.T) {
	vol := GenerateRM(17, 17, 16, 250, 1)
	eng, err := Preprocess(vol, Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Extract(context.Background(), 128, Options{}) // no KeepMeshes
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RenderComposite(res, 64, 64); err == nil {
		t.Error("RenderComposite without meshes should fail")
	}
}

func TestRenderWallAndAssemble(t *testing.T) {
	vol := GenerateRM(33, 33, 30, 250, 1)
	eng, err := Preprocess(vol, Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Extract(context.Background(), 128, Options{KeepMeshes: true})
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := RenderWall(res, 128, 96, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiles) != 4 {
		t.Fatalf("%d tiles", len(tiles))
	}
	wall, err := AssembleWall(tiles, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wall.W != 128 || wall.H != 96 {
		t.Errorf("wall %d×%d", wall.W, wall.H)
	}
	// The wall must equal the plain composite pixel-for-pixel.
	ref, err := RenderComposite(res, 128, 96)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Color {
		if ref.Color[i] != wall.Color[i] {
			t.Fatal("tiled wall differs from direct composite")
		}
	}
}

func TestGenerators(t *testing.T) {
	if g := GenerateSphere(16); g.Nx != 16 || g.Fmt != U8 {
		t.Error("GenerateSphere wrong shape")
	}
	if g := GenerateTorus(16); g.Nx != 16 {
		t.Error("GenerateTorus wrong shape")
	}
	gen := TimeVaryingRM(9, 9, 8, 3)
	if g := gen(100); g.Nx != 9 {
		t.Error("TimeVaryingRM wrong shape")
	}
}

func TestTimeVaryingFacade(t *testing.T) {
	tv, err := PreprocessTimeVarying(TimeVaryingRM(17, 17, 16, 3), []int{100, 200}, Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tv.ExtractStep(context.Background(), 200, 70, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles == 0 {
		t.Error("no triangles from time-varying extraction")
	}
}

func TestFormatsExported(t *testing.T) {
	if U8.Bytes() != 1 || U16.Bytes() != 2 || F32.Bytes() != 4 {
		t.Error("format re-exports broken")
	}
}

func TestServerFacade(t *testing.T) {
	eng, err := Preprocess(GenerateRM(33, 33, 30, 250, 1), Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, ServeConfig{})
	var first *ServeResponse
	for i := 0; i < 3; i++ {
		r, err := srv.Query(context.Background(), 0, 128)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r
		} else if r.Frame() != first.Frame() {
			t.Error("repeated queries should share the cached surface")
		}
	}
	st := srv.Stats()
	if st.Extractions != 1 || st.CacheHits != 2 {
		t.Errorf("stats = %+v, want 1 extraction and 2 hits", st)
	}
	// The served mesh renders like a direct extraction's.
	img, err := RenderComposite(first.Result, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if img.CoveredPixels() == 0 {
		t.Error("served mesh rendered empty")
	}

	tvSrv := NewServer(mustTV(t), ServeConfig{})
	if _, err := tvSrv.Query(context.Background(), 200, 70); err != nil {
		t.Fatal(err)
	}
	if _, err := tvSrv.Query(context.Background(), 999, 70); err == nil {
		t.Error("unknown time step should fail")
	}
}

func mustTV(t *testing.T) *TimeVaryingEngine {
	t.Helper()
	tv, err := PreprocessTimeVarying(TimeVaryingRM(17, 17, 16, 3), []int{100, 200}, Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return tv
}

// TestPreprocessCopiesNoRecord is the allocation gate behind the memory node
// disk: preprocessing the benchmark volume onto one memory-backed node
// allocates its records once, in the extractor's arenas, and the node disk
// reads them there. Beside the records (DataBytes, 13.3 MB) it may allocate
// a stated slack of 10 MiB: the extractor's plane rings (span planes per
// core, two cores here) and cell lists, the plan's endpoint ranks and the
// disk's offset table, about 7 MB together (8.5 MB under -race). Copying the
// records into an image of the node disk would take it past the slack by
// about 8 MB.
func TestPreprocessCopiesNoRecord(t *testing.T) {
	const slack = 10 << 20
	g := benchmarkVolume()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng, err := Preprocess(g, Config{Procs: 1, ThreadsPerNode: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("preprocessing allocated %.1f MB for %.1f MB of records", float64(got)/1e6, float64(eng.DataBytes)/1e6)
	if got > uint64(eng.DataBytes)+slack {
		t.Errorf("preprocessing allocated %d B, more than its %d B of records plus %d B of slack: a record is copied", got, eng.DataBytes, slack)
	}
}

// TestExtractAllocatesItsMeshes is the allocation gate behind a kept surface
// being its welded vertices and index triples: on the benchmark volume, a
// warmed Extract with KeepMeshes allocates each node's mesh — 12 B a vertex
// and 12 B a triangle, about 19.6 B a triangle — and at most a stated slack
// of 1 MiB besides: the query's batch buffer, the lanes' goroutines and the
// result (about 0.2 MB here). A 36 B-a-triangle soup, as the expand phase
// once gathered, would take it past the slack by 9 MB or more at each of
// these isovalues (16.4 B a triangle more, 661 k to 1.67 M triangles).
func TestExtractAllocatesItsMeshes(t *testing.T) {
	const slack = 1 << 20
	g := benchmarkVolume()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	eng, err := Preprocess(g, Config{Procs: 1, ThreadsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	for _, iso := range []float32{70, 110, 150} {
		var res *Result
		var before, after runtime.MemStats
		for run := 0; run < 2; run++ { // the first warms the engine's scratch
			runtime.ReadMemStats(&before)
			if res, err = eng.Extract(ctx, iso, Options{KeepMeshes: true}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
		}
		meshes := 0
		for _, n := range res.PerNode {
			meshes += 12*n.Mesh.NumVerts() + 4*len(n.Mesh.Idx)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("iso %v: %.1f MB allocated for %d triangles in %.1f MB of mesh (%.1f B a triangle)",
			iso, float64(got)/1e6, res.Triangles, float64(meshes)/1e6, float64(meshes)/float64(res.Triangles))
		if res.Triangles < 500_000 || got > uint64(meshes)+slack {
			t.Errorf("iso %v: Extract allocated %d B for %d triangles, more than their %d B of mesh plus %d B of slack",
				iso, got, res.Triangles, meshes, slack)
		}
	}
}

// benchmarkVolume is the volume bench/ generates (256×256×240 RM, step 250,
// seed 42), made once per test process: the allocation gates and
// BenchmarkPreprocess share it, and each would otherwise spend seconds
// generating its own. Its callers read it and never write it.
var benchmarkVolume = sync.OnceValue(func() *Grid { return GenerateRM(256, 256, 240, 250, 42) })
