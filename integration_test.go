package repro

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/march"
)

// TestFullWorkflow exercises the complete production path a downstream user
// follows: generate → write volume file → stream-preprocess to disk → save
// → reopen → extract → verify against the in-memory reference → render →
// composite → export mesh files.
func TestFullWorkflow(t *testing.T) {
	dir := t.TempDir()

	// 1. A volume file on disk (the distribution form of real datasets).
	vol := GenerateRM(49, 49, 44, 240, 9)
	volPath := filepath.Join(dir, "step240.vol")
	if err := vol.WriteFile(volPath); err != nil {
		t.Fatal(err)
	}

	// 2. Stream-preprocess the file onto 4 file-backed node disks and save.
	dataDir := filepath.Join(dir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	eng, err := cluster.BuildFromVolumeFile(volPath, cluster.Config{Procs: 4, Dir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(dataDir); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// 3. Reopen (CRC-verified) and extract.
	reopened, err := cluster.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	const iso = 120
	res, err := reopened.Extract(context.Background(), iso, Options{KeepMeshes: true})
	if err != nil {
		t.Fatal(err)
	}

	// 4. Verify against marching the raw grid.
	ref, _ := march.Grid(vol, iso)
	if res.Triangles != ref.Len() || res.Triangles == 0 {
		t.Fatalf("workflow produced %d triangles, reference %d", res.Triangles, ref.Len())
	}

	// 5. Render and composite to the tiled wall.
	tiles, err := RenderWall(res, 256, 192, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wall, err := AssembleWall(tiles, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wall.CoveredPixels() == 0 {
		t.Error("rendered wall is empty")
	}
	if err := wall.WriteImageFile(filepath.Join(dir, "wall.png")); err != nil {
		t.Fatal(err)
	}

	// 6. Export the welded mesh; it must reference only valid vertices and
	// keep the reference triangle count minus exact-degenerates.
	soup, err := MergeMeshes(res)
	if err != nil {
		t.Fatal(err)
	}
	im := IndexMesh(soup)
	if im.NumFaces() == 0 || im.NumFaces() > soup.Len() {
		t.Fatalf("welded mesh has %d faces for %d triangles", im.NumFaces(), soup.Len())
	}
	for _, ext := range []string{".obj", ".stl", ".ply"} {
		if err := im.WriteFile(filepath.Join(dir, "surface"+ext)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeterministicExtraction checks that two engines built independently
// from the same inputs give byte-identical answers.
func TestDeterministicExtraction(t *testing.T) {
	build := func() *Result {
		vol := GenerateRM(33, 33, 30, 230, 7)
		eng, err := Preprocess(vol, Config{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Extract(context.Background(), 128, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := build(), build()
	if a.Triangles != b.Triangles || a.Active != b.Active {
		t.Fatalf("runs differ: %d/%d vs %d/%d triangles/active", a.Triangles, a.Active, b.Triangles, b.Active)
	}
	for i := range a.PerNode {
		if a.PerNode[i].ActiveMetacells != b.PerNode[i].ActiveMetacells ||
			a.PerNode[i].Triangles != b.PerNode[i].Triangles {
			t.Fatalf("node %d differs between runs", i)
		}
	}
}

// TestMergeMeshesRequiresKeep covers the documented error path.
func TestMergeMeshesRequiresKeep(t *testing.T) {
	eng, err := Preprocess(GenerateSphere(17), Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Extract(context.Background(), 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeMeshes(res); err == nil {
		t.Error("MergeMeshes without KeepMeshes should fail")
	}
}
