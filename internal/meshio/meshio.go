// Package meshio welds the extraction pipeline's triangle soups into one
// geom.IndexedMesh (exact-coordinate vertex welding, per-vertex normals) and
// writes the standard interchange formats a downstream user of an
// isosurface library expects: Wavefront OBJ, binary STL and ASCII PLY.
//
// Welding by exact coordinates is correct here because marching cubes
// interpolates shared cell edges from identical inputs, so coincident
// vertices match bit-for-bit (the property the extraction tests rely on).
package meshio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/geom"
)

// Index welds triangle soups, in order, into one indexed mesh, dropping
// degenerate triangles (including those that collapse under welding). Given
// an extraction's per-node meshes it welds what their concatenation would.
func Index(meshes ...*geom.Mesh) *geom.IndexedMesh {
	n := 0
	for _, m := range meshes {
		n += m.Len()
	}
	im := &geom.IndexedMesh{}
	lookup := make(map[geom.Vec3]uint32, n)
	idOf := func(p geom.Vec3) uint32 {
		if id, ok := lookup[p]; ok {
			return id
		}
		id := uint32(len(im.Verts))
		im.Verts = append(im.Verts, p)
		lookup[p] = id
		return id
	}
	for _, m := range meshes {
		for _, tr := range m.Tris {
			if tr.Degenerate() {
				continue
			}
			a, b, c := idOf(tr.A), idOf(tr.B), idOf(tr.C)
			if a == b || b == c || a == c {
				continue
			}
			im.Idx = append(im.Idx, a, b, c)
		}
	}
	return im
}

// Normals computes area-weighted per-vertex normals.
func Normals(im *geom.IndexedMesh) []geom.Vec3 {
	ns := make([]geom.Vec3, len(im.Verts))
	for f := range slices.Chunk(im.Idx, 3) {
		t := geom.Triangle{A: im.Verts[f[0]], B: im.Verts[f[1]], C: im.Verts[f[2]]}
		n := t.Normal() // magnitude ∝ area: area weighting for free
		for _, vi := range f {
			ns[vi] = ns[vi].Add(n)
		}
	}
	for i := range ns {
		ns[i] = ns[i].Normalize()
	}
	return ns
}

// edgeUses counts the faces on each undirected edge of im.
func edgeUses(im *geom.IndexedMesh) map[[2]uint32]int {
	use := make(map[[2]uint32]int, 3*im.Len()/2)
	for f := range slices.Chunk(im.Idx, 3) {
		for i := 0; i < 3; i++ {
			a, b := f[i], f[(i+1)%3]
			if a > b {
				a, b = b, a
			}
			use[[2]uint32{a, b}]++
		}
	}
	return use
}

// EulerCharacteristic returns V − E + F, with edges counted from the index
// triples. For a closed orientable surface this is 2 − 2·genus.
func EulerCharacteristic(im *geom.IndexedMesh) int {
	return im.NumVerts() - len(edgeUses(im)) + im.Len()
}

// IsClosed reports whether every edge is shared by exactly two faces (a
// watertight surface).
func IsClosed(im *geom.IndexedMesh) bool {
	for _, n := range edgeUses(im) {
		if n != 2 {
			return false
		}
	}
	return true
}

// WriteOBJ writes im as Wavefront OBJ with per-vertex normals.
func WriteOBJ(w io.Writer, im *geom.IndexedMesh) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "# isosurface: %d vertices, %d faces\n", im.NumVerts(), im.Len())
	for _, v := range im.Verts {
		fmt.Fprintf(bw, "v %g %g %g\n", v.X, v.Y, v.Z)
	}
	for _, n := range Normals(im) {
		fmt.Fprintf(bw, "vn %g %g %g\n", n.X, n.Y, n.Z)
	}
	for f := range slices.Chunk(im.Idx, 3) {
		// OBJ indices are 1-based; vertex and normal indices coincide.
		fmt.Fprintf(bw, "f %d//%d %d//%d %d//%d\n", f[0]+1, f[0]+1, f[1]+1, f[1]+1, f[2]+1, f[2]+1)
	}
	return bw.Flush()
}

// WriteSTL writes im as binary STL (unindexed; STL has no shared vertices).
func WriteSTL(w io.Writer, im *geom.IndexedMesh) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var header [80]byte
	copy(header[:], "isosurface (binary STL)")
	if _, err := bw.Write(header[:]); err != nil {
		return err
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(im.Len()))
	if _, err := bw.Write(n[:]); err != nil {
		return err
	}
	var rec [50]byte
	putV := func(off int, v geom.Vec3) {
		binary.LittleEndian.PutUint32(rec[off:], math.Float32bits(v.X))
		binary.LittleEndian.PutUint32(rec[off+4:], math.Float32bits(v.Y))
		binary.LittleEndian.PutUint32(rec[off+8:], math.Float32bits(v.Z))
	}
	for f := range slices.Chunk(im.Idx, 3) {
		t := geom.Triangle{A: im.Verts[f[0]], B: im.Verts[f[1]], C: im.Verts[f[2]]}
		putV(0, t.UnitNormal())
		putV(12, t.A)
		putV(24, t.B)
		putV(36, t.C)
		rec[48], rec[49] = 0, 0 // attribute byte count
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WritePLY writes im as ASCII PLY.
func WritePLY(w io.Writer, im *geom.IndexedMesh) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "ply\nformat ascii 1.0\nelement vertex %d\n", im.NumVerts())
	fmt.Fprint(bw, "property float x\nproperty float y\nproperty float z\n")
	fmt.Fprintf(bw, "element face %d\nproperty list uchar int vertex_indices\nend_header\n", im.Len())
	for _, v := range im.Verts {
		fmt.Fprintf(bw, "%g %g %g\n", v.X, v.Y, v.Z)
	}
	for f := range slices.Chunk(im.Idx, 3) {
		fmt.Fprintf(bw, "3 %d %d %d\n", f[0], f[1], f[2])
	}
	return bw.Flush()
}

// writers are the formats WriteFile knows, by file extension.
var writers = map[string]func(io.Writer, *geom.IndexedMesh) error{
	".obj": WriteOBJ,
	".stl": WriteSTL,
	".ply": WritePLY,
}

// CheckPath reports whether WriteFile knows the mesh format path's extension
// names: .obj, .stl or .ply.
func CheckPath(path string) error {
	if writers[filepath.Ext(path)] == nil {
		return fmt.Errorf("meshio: unknown mesh extension in %q (want .obj/.stl/.ply)", path)
	}
	return nil
}

// WriteFile writes im to path in the format its extension names. An unknown
// extension fails before the file is created.
func WriteFile(path string, im *geom.IndexedMesh) error {
	if err := CheckPath(path); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writers[filepath.Ext(path)](f, im); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
