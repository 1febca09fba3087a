package meshio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/march"
	"repro/internal/volume"
)

func sphereMesh(t *testing.T) *geom.Mesh {
	t.Helper()
	mesh, _ := march.Grid(volume.Sphere(20), 128)
	if mesh.Len() == 0 {
		t.Fatal("no sphere mesh")
	}
	return mesh
}

func TestIndexWeldsSharedVertices(t *testing.T) {
	mesh := sphereMesh(t)
	im := Index(mesh)
	if im.Len() == 0 {
		t.Fatal("no faces")
	}
	// A closed triangle mesh has far fewer vertices than 3 per face; for
	// large closed meshes V ≈ F/2.
	if im.NumVerts() >= 3*im.Len()*2/3 {
		t.Errorf("welding ineffective: %d verts for %d faces", im.NumVerts(), im.Len())
	}
	// Every face index must be valid and non-degenerate.
	for f := range slices.Chunk(im.Idx, 3) {
		for _, vi := range f {
			if int(vi) >= im.NumVerts() {
				t.Fatalf("face references vertex %d of %d", vi, im.NumVerts())
			}
		}
		if f[0] == f[1] || f[1] == f[2] || f[0] == f[2] {
			t.Fatal("degenerate face survived welding")
		}
	}
	// Welding per-node soups in order is welding their concatenation:
	// vertices shared across the cut get one index either way.
	n := mesh.Len()
	a, b := &geom.Mesh{Tris: mesh.Tris[:n/3]}, &geom.Mesh{Tris: mesh.Tris[n/3:]}
	parts := Index(a, &geom.Mesh{}, b)
	if !slices.Equal(parts.Verts, im.Verts) || !slices.Equal(parts.Idx, im.Idx) {
		t.Errorf("Index(a, empty, b): %d verts / %d faces, Index(a+b): %d / %d",
			parts.NumVerts(), parts.Len(), im.NumVerts(), im.Len())
	}
}

func TestIndexedSphereTopology(t *testing.T) {
	im := Index(sphereMesh(t))
	if !IsClosed(im) {
		t.Error("sphere mesh not closed after indexing")
	}
	if chi := EulerCharacteristic(im); chi != 2 {
		t.Errorf("Euler characteristic = %d, want 2", chi)
	}
}

func TestIndexedTorusTopology(t *testing.T) {
	mesh, _ := march.Grid(volume.Torus(32), 180)
	im := Index(mesh)
	if chi := EulerCharacteristic(im); chi != 0 {
		t.Errorf("torus Euler characteristic = %d, want 0", chi)
	}
}

func TestIndexDropsDegenerate(t *testing.T) {
	var m geom.Mesh
	m.Append(geom.Triangle{A: geom.V(0, 0, 0), B: geom.V(1, 1, 1), C: geom.V(2, 2, 2)}) // collinear
	m.Append(geom.Triangle{A: geom.V(0, 0, 0), B: geom.V(0, 0, 0), C: geom.V(1, 0, 0)}) // repeated vertex
	m.Append(geom.Triangle{A: geom.V(0, 0, 0), B: geom.V(1, 0, 0), C: geom.V(0, 1, 0)}) // good
	im := Index(&m)
	if im.Len() != 1 {
		t.Errorf("kept %d faces, want 1", im.Len())
	}
}

func TestNormalsUnitAndOutward(t *testing.T) {
	im := Index(sphereMesh(t))
	ns := Normals(im)
	c := geom.V(9.5, 9.5, 9.5)
	for i, n := range ns {
		l := n.Len()
		if math.Abs(float64(l-1)) > 1e-4 {
			t.Fatalf("normal %d has length %v", i, l)
		}
		if n.Dot(im.Verts[i].Sub(c)) <= 0 {
			t.Fatalf("vertex %d normal points inward", i)
		}
	}
}

func TestWriteOBJ(t *testing.T) {
	im := Index(sphereMesh(t))
	var buf bytes.Buffer
	if err := WriteOBJ(&buf, im); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Count(s, "\nv ")+1 < im.NumVerts() { // first v may follow header line
		t.Error("missing vertices in OBJ")
	}
	if strings.Count(s, "\nf ") != im.Len() {
		t.Errorf("OBJ has %d faces, want %d", strings.Count(s, "\nf "), im.Len())
	}
	if !strings.Contains(s, "vn ") {
		t.Error("OBJ missing normals")
	}
}

func TestWriteSTL(t *testing.T) {
	im := Index(sphereMesh(t))
	var buf bytes.Buffer
	if err := WriteSTL(&buf, im); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 84+50*im.Len() {
		t.Fatalf("STL size %d, want %d", len(b), 84+50*im.Len())
	}
	if n := binary.LittleEndian.Uint32(b[80:]); int(n) != im.Len() {
		t.Errorf("STL face count %d, want %d", n, im.Len())
	}
	// First triangle's vertices must match the mesh.
	v := im.Verts[im.Idx[0]]
	gotX := math.Float32frombits(binary.LittleEndian.Uint32(b[84+12:]))
	if gotX != v.X {
		t.Errorf("STL vertex mismatch: %v vs %v", gotX, v.X)
	}
}

func TestWritePLY(t *testing.T) {
	im := Index(sphereMesh(t))
	var buf bytes.Buffer
	if err := WritePLY(&buf, im); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "ply\nformat ascii 1.0\n") {
		t.Error("bad PLY header")
	}
	if !strings.Contains(s, "element vertex") || !strings.Contains(s, "element face") {
		t.Error("PLY missing element declarations")
	}
}

func TestWriteFileByExtension(t *testing.T) {
	im := Index(sphereMesh(t))
	dir := t.TempDir()
	for _, name := range []string{"m.obj", "m.stl", "m.ply"} {
		if err := WriteFile(filepath.Join(dir, name), im); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// An unknown extension fails before the file is created, and CheckPath
	// says so up front.
	for _, name := range []string{"m.xyz", "m", "m.obj.bak", "obj"} {
		path := filepath.Join(dir, name)
		if CheckPath(path) == nil {
			t.Errorf("CheckPath(%q) accepted an unknown extension", name)
		}
		if err := WriteFile(path, im); err == nil {
			t.Errorf("%s: unknown extension should fail", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: a failed WriteFile left a file behind (stat: %v)", name, err)
		}
	}
}

func TestEmptyMesh(t *testing.T) {
	for _, im := range []*geom.IndexedMesh{Index(), Index(&geom.Mesh{})} {
		if im.NumVerts() != 0 || im.Len() != 0 {
			t.Error("empty soup produced geometry")
		}
		if !IsClosed(im) { // vacuously closed
			t.Error("empty mesh should be vacuously closed")
		}
		var buf bytes.Buffer
		if err := WriteOBJ(&buf, im); err != nil {
			t.Error(err)
		}
	}
}

// TestExportBytes pins every exporter's output, byte for byte, on the welded
// sphere and torus: a change to the welding order, the index layout or a
// format's printing shows up here and not first in a downstream tool.
func TestExportBytes(t *testing.T) {
	torus, _ := march.Grid(volume.Torus(32), 180)
	meshes := map[string]*geom.IndexedMesh{"sphere": Index(sphereMesh(t)), "torus": Index(torus)}
	for _, c := range []struct {
		mesh, ext string
		size      int
		sha256    string
	}{
		{"sphere", ".obj", 126213, "71bfde1aaa5234a6de5e896f514c738a4b3629b82b03fc5ff0c8b58dfc5d853d"},
		{"sphere", ".stl", 115084, "fb76309e51879955f3f93874c50e945b6a6accae194953ef77966f55affa387a"},
		{"sphere", ".ply", 47340, "2fa974f02af53cd55463f07d7a110dada69982516ab9825e10595c80bd41bf5f"},
		{"torus", ".obj", 229784, "4af5c28c5a4ddc68cd835b456603ae687d4f26417ddad34320ace72435cb743c"},
		{"torus", ".stl", 200084, "9b8865e75a93a5b0a0110e37d8bb3d7a3a5d68e07cfae8379271031900d26515"},
		{"torus", ".ply", 88826, "2f4948d71ae78c89211677cf8320f791de9b0e54a1c4d5f95c32c5d3d6dbeb5e"},
	} {
		var buf bytes.Buffer
		if err := writers[c.ext](&buf, meshes[c.mesh]); err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != c.size || sum != c.sha256 {
			t.Errorf("%s%s: %d bytes, sha256 %s; want %d bytes, %s", c.mesh, c.ext, buf.Len(), sum, c.size, c.sha256)
		}
	}
}
