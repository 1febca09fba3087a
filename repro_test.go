package repro

import (
	"context"
	"path/filepath"
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
