package repro

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/march"
	"repro/internal/volume"
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
	if im.Len() == 0 || im.Len() > soup.Len() {
		t.Fatalf("welded mesh has %d faces for %d triangles", im.Len(), soup.Len())
	}
	for _, ext := range []string{".obj", ".stl", ".ply"} {
		if err := WriteMesh(filepath.Join(dir, "surface"+ext), im); err != nil {
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

// TestPreprocessAllNaNMetacell: a float volume one of whose metacells holds
// nothing but NaN used to panic in the index planner (an interval of
// [+Inf, -Inf] contains no split value). No isovalue cuts such a metacell, so
// preprocessing drops it like a constant one, and the surface is the one
// marching the whole grid finds, byte for byte once both soups are sorted.
func TestPreprocessAllNaNMetacell(t *testing.T) {
	vol := volume.New(33, 33, 33, volume.F32)
	vol.Fill(func(x, y, z int) float32 {
		if x < 9 && y < 9 && z < 9 {
			return float32(math.NaN())
		}
		return float32(x + y + z)
	})
	for _, procs := range []int{1, 3} {
		eng, err := Preprocess(vol, Config{Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		if eng.DroppedMetacells != 1 || eng.TotalMetacells != 63 {
			t.Fatalf("kept %d and dropped %d of 64 metacells, want 63 and the all-NaN one", eng.TotalMetacells, eng.DroppedMetacells)
		}
		for _, iso := range []float32{28.5, 40, 70.25} { // the first cuts every metacell that is partly NaN
			res, err := eng.Extract(context.Background(), iso, Options{KeepMeshes: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := MergeMeshes(res)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := march.Grid(vol, iso)
			if got.Len() == 0 || !slices.Equal(sortedSoup(got), sortedSoup(ref)) {
				t.Errorf("procs %d iso %v: %d triangles, marching the grid gives %d, or not the same ones", procs, iso, got.Len(), ref.Len())
			}
		}
	}
}

// sortedSoup is a mesh's triangles as bit patterns, in an order that does not
// depend on the order they were emitted in.
func sortedSoup(m *Mesh) [][9]uint32 {
	out := make([][9]uint32, len(m.Tris))
	for i, tr := range m.Tris {
		for j, v := range [9]float32{tr.A.X, tr.A.Y, tr.A.Z, tr.B.X, tr.B.Y, tr.B.Z, tr.C.X, tr.C.Y, tr.C.Z} {
			out[i][j] = math.Float32bits(v)
		}
	}
	slices.SortFunc(out, func(a, b [9]uint32) int { return slices.Compare(a[:], b[:]) })
	return out
}
