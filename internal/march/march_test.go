package march

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/metacell"
	"repro/internal/volume"
)

func TestTableEmptyCases(t *testing.T) {
	if TriangleCount(0) != 0 || TriangleCount(255) != 0 {
		t.Error("all-out / all-in configurations must produce no triangles")
	}
}

func TestTableSingleCorner(t *testing.T) {
	// One inside corner cuts exactly its three incident edges: one triangle.
	for c := 0; c < 8; c++ {
		cfg := uint8(1 << c)
		if got := TriangleCount(cfg); got != 1 {
			t.Errorf("config %08b: %d triangles, want 1", cfg, got)
		}
		if got := TriangleCount(^cfg); got != 1 {
			t.Errorf("config %08b: %d triangles, want 1", ^cfg, got)
		}
	}
}

func TestTableAdjacentPair(t *testing.T) {
	// Two inside corners sharing an edge produce a quad = 2 triangles.
	for e := 0; e < 12; e++ {
		cfg := uint8(1<<edgeCorners[e][0] | 1<<edgeCorners[e][1])
		if got := TriangleCount(cfg); got != 2 {
			t.Errorf("edge %d config %08b: %d triangles, want 2", e, cfg, got)
		}
	}
}

func TestTableOppositeCorners(t *testing.T) {
	// Two inside corners on a body diagonal are separated: two triangles in
	// two disjoint components.
	cfg := uint8(1<<0 | 1<<7)
	if got := TriangleCount(cfg); got != 2 {
		t.Errorf("config %08b: %d triangles, want 2", cfg, got)
	}
}

func TestTableValidEdgeIndices(t *testing.T) {
	for cfg := 0; cfg < 256; cfg++ {
		tris := TableTriangles(uint8(cfg))
		if len(tris)%3 != 0 {
			t.Fatalf("config %d: triangle list length %d", cfg, len(tris))
		}
		for _, e := range tris {
			if e >= 12 {
				t.Fatalf("config %d references edge %d", cfg, e)
			}
		}
	}
}

func TestTableEdgesAreCut(t *testing.T) {
	// Every edge referenced by a configuration must actually be cut (one
	// endpoint inside, one outside).
	for cfg := 0; cfg < 256; cfg++ {
		for _, e := range TableTriangles(uint8(cfg)) {
			a, b := edgeCorners[e][0], edgeCorners[e][1]
			ia := cfg&(1<<a) != 0
			ib := cfg&(1<<b) != 0
			if ia == ib {
				t.Fatalf("config %08b uses uncut edge %d", cfg, e)
			}
		}
	}
}

func TestTableClosedWithinCell(t *testing.T) {
	// Within one cell the triangulation's boundary must consist only of
	// segments lying on cube faces (each polygon edge on a face is shared
	// with the neighboring cell). Interior fan diagonals must appear exactly
	// twice.
	for cfg := 0; cfg < 256; cfg++ {
		tris := TableTriangles(uint8(cfg))
		edgeUse := map[[2]uint8]int{}
		for i := 0; i+2 < len(tris); i += 3 {
			for _, pr := range [3][2]uint8{{tris[i], tris[i+1]}, {tris[i+1], tris[i+2]}, {tris[i+2], tris[i]}} {
				a, b := pr[0], pr[1]
				if a > b {
					a, b = b, a
				}
				edgeUse[[2]uint8{a, b}]++
			}
		}
		for pr, n := range edgeUse {
			if n > 2 {
				t.Fatalf("config %d: polygon edge %v used %d times", cfg, pr, n)
			}
			if n == 1 {
				// Boundary segment: its two cube edges must share a face.
				if !shareFace(pr[0], pr[1]) {
					t.Fatalf("config %d: boundary segment %v not on a cube face", cfg, pr)
				}
			}
		}
	}
}

func shareFace(e1, e2 uint8) bool {
	for _, fc := range faceCorners {
		on := func(e uint8) bool {
			found := 0
			for _, c := range fc {
				if c == edgeCorners[e][0] || c == edgeCorners[e][1] {
					found++
				}
			}
			return found == 2
		}
		if on(e1) && on(e2) {
			return true
		}
	}
	return false
}

func TestTableMaxTriangles(t *testing.T) {
	// Marching cubes never produces more than 12 triangles per cell (the
	// classic bound is 5 with minimal triangulations; fan triangulation of
	// separated components stays well under 12).
	max := 0
	for cfg := 0; cfg < 256; cfg++ {
		if n := TriangleCount(uint8(cfg)); n > max {
			max = n
		}
	}
	if max == 0 || max > 12 {
		t.Errorf("max triangles per cell = %d", max)
	}
	t.Logf("max triangles per cell: %d", max)
}

func TestConfigClassification(t *testing.T) {
	v := [8]float32{0, 10, 0, 10, 0, 10, 0, 10}
	if got := Config(&v, 5); got != 0b10101010 {
		t.Errorf("Config = %08b", got)
	}
	// Equality counts as inside.
	v2 := [8]float32{5, 0, 0, 0, 0, 0, 0, 0}
	if got := Config(&v2, 5); got != 1 {
		t.Errorf("Config with equality = %08b", got)
	}
}

// meshEdgeKey builds an order-independent key for a triangle edge using
// exact float coordinates (interpolation is deterministic, so shared edges
// match bit-for-bit).
type vtx [3]float32

func meshEdges(m *geom.Mesh) map[[2]vtx]int {
	key := func(a, b geom.Vec3) [2]vtx {
		ka, kb := vtx{a.X, a.Y, a.Z}, vtx{b.X, b.Y, b.Z}
		if less(kb, ka) {
			ka, kb = kb, ka
		}
		return [2]vtx{ka, kb}
	}
	edges := map[[2]vtx]int{}
	for _, tr := range m.ExpandSoup() {
		if tr.Degenerate() {
			continue
		}
		edges[key(tr.A, tr.B)]++
		edges[key(tr.B, tr.C)]++
		edges[key(tr.C, tr.A)]++
	}
	return edges
}

func less(a, b vtx) bool {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// eulerCharacteristic computes V−E+F for a mesh, deduplicating vertices by
// exact coordinates and skipping degenerate triangles.
func eulerCharacteristic(m *geom.Mesh) int {
	verts := map[vtx]struct{}{}
	faces := 0
	for _, tr := range m.ExpandSoup() {
		if tr.Degenerate() {
			continue
		}
		faces++
		for _, p := range []geom.Vec3{tr.A, tr.B, tr.C} {
			verts[vtx{p.X, p.Y, p.Z}] = struct{}{}
		}
	}
	return len(verts) - len(meshEdges(m)) + faces
}

func TestSphereWatertight(t *testing.T) {
	g := volume.Sphere(24)
	mesh, active := Grid(g, 128) // surface well inside the volume
	if mesh.Len() == 0 || active == 0 {
		t.Fatal("no surface extracted")
	}
	for e, n := range meshEdges(mesh) {
		if n != 2 {
			t.Fatalf("edge %v used %d times; surface not watertight", e, n)
		}
	}
}

func TestSphereEulerCharacteristic(t *testing.T) {
	g := volume.Sphere(24)
	mesh, _ := Grid(g, 128)
	if chi := eulerCharacteristic(mesh); chi != 2 {
		t.Errorf("sphere Euler characteristic = %d, want 2", chi)
	}
}

func TestTorusEulerCharacteristic(t *testing.T) {
	g := volume.Torus(32)
	mesh, _ := Grid(g, 180)
	if mesh.Len() == 0 {
		t.Fatal("no torus surface")
	}
	if chi := eulerCharacteristic(mesh); chi != 0 {
		t.Errorf("torus Euler characteristic = %d, want 0", chi)
	}
}

func TestSphereNormalsPointOutward(t *testing.T) {
	// The sphere field decreases radially, so oriented normals (toward the
	// lower-valued region) must point away from the center.
	g := volume.Sphere(24)
	mesh, _ := Grid(g, 128)
	c := geom.V(11.5, 11.5, 11.5)
	bad := 0
	for _, tr := range mesh.ExpandSoup() {
		if tr.Degenerate() {
			continue
		}
		if tr.UnitNormal().Dot(tr.Centroid().Sub(c)) <= 0 {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d triangles have inward normals", bad, mesh.Len())
	}
}

func TestSphereAreaApproximatesAnalytic(t *testing.T) {
	g := volume.Sphere(48)
	// value = 255(1 − r/rmax) = 128 → r = rmax/2·(254/255)... compute radius:
	c := float32(47) / 2
	rmax := float32(math.Sqrt(3)) * c
	r := float64(rmax * (1 - 128.0/255.0))
	want := 4 * math.Pi * r * r
	mesh, _ := Grid(g, 128)
	var got float64
	for _, tr := range mesh.ExpandSoup() {
		got += float64(tr.Area())
	}
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("sphere area = %.1f, analytic %.1f (>5%% off)", got, want)
	}
}

func TestMetacellMatchesGrid(t *testing.T) {
	// Extracting via metacells must produce exactly the same triangle set as
	// marching the whole grid (in some order).
	for _, iso := range []float32{60, 128, 200} {
		g := volume.RichtmyerMeshkov(33, 33, 33, 200, 5)
		ref, refActive := Grid(g, iso)

		l, cells := metacell.Extract(g, 9)
		var mesh geom.Mesh
		active := 0
		for _, c := range cells {
			if c.VMin > iso || c.VMax < iso {
				continue
			}
			m, err := metacell.DecodeRecord(l, c.Record)
			if err != nil {
				t.Fatal(err)
			}
			active += Metacell(l, &m, iso, &mesh)
		}
		if active != refActive {
			t.Errorf("iso %v: active cells %d, reference %d", iso, active, refActive)
		}
		if mesh.Len() != ref.Len() {
			t.Fatalf("iso %v: %d triangles via metacells, %d via grid", iso, mesh.Len(), ref.Len())
		}
		if !sameTriangleSet(&mesh, ref) {
			t.Errorf("iso %v: triangle sets differ", iso)
		}
	}
}

func sameTriangleSet(a, b *geom.Mesh) bool {
	keyOf := func(tr geom.Triangle) [9]float32 {
		ps := []vtx{{tr.A.X, tr.A.Y, tr.A.Z}, {tr.B.X, tr.B.Y, tr.B.Z}, {tr.C.X, tr.C.Y, tr.C.Z}}
		sort.Slice(ps, func(i, j int) bool { return less(ps[i], ps[j]) })
		return [9]float32{ps[0][0], ps[0][1], ps[0][2], ps[1][0], ps[1][1], ps[1][2], ps[2][0], ps[2][1], ps[2][2]}
	}
	count := map[[9]float32]int{}
	for _, tr := range a.ExpandSoup() {
		count[keyOf(tr)]++
	}
	for _, tr := range b.ExpandSoup() {
		count[keyOf(tr)]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestMetacellSkipsOutOfRangeCells(t *testing.T) {
	// A 12³ volume with span 9 has truncated edge metacells; marching them
	// must produce no geometry outside the volume bounds.
	g := volume.Sphere(12)
	l, cells := metacell.Extract(g, 9)
	var mesh geom.Mesh
	for _, c := range cells {
		if c.VMin > 128 || c.VMax < 128 {
			continue
		}
		m, err := metacell.DecodeRecord(l, c.Record)
		if err != nil {
			t.Fatal(err)
		}
		Metacell(l, &m, 128, &mesh)
	}
	b := mesh.Bounds()
	if b.Max.X > 11 || b.Max.Y > 11 || b.Max.Z > 11 {
		t.Errorf("geometry outside volume: bounds %+v", b)
	}
	// And it must still match the reference grid extraction.
	ref, _ := Grid(g, 128)
	if mesh.Len() != ref.Len() {
		t.Errorf("truncated volume: %d triangles, reference %d", mesh.Len(), ref.Len())
	}
}

func TestVerticesLieOnCutEdges(t *testing.T) {
	// Every emitted vertex must have the isovalue under trilinear
	// interpolation along its edge — verify value at vertex ≈ iso by
	// re-interpolating from the grid.
	g := volume.Sphere(16)
	const iso = 100
	mesh, _ := Grid(g, iso)
	interp := func(p geom.Vec3) float32 {
		x0, y0, z0 := int(p.X), int(p.Y), int(p.Z)
		fx, fy, fz := p.X-float32(x0), p.Y-float32(y0), p.Z-float32(z0)
		// Vertices lie on cell edges: at most one fractional coordinate.
		frac := 0
		if fx > 0 {
			frac++
		}
		if fy > 0 {
			frac++
		}
		if fz > 0 {
			frac++
		}
		if frac > 1 {
			return -1
		}
		x1, y1, z1 := x0, y0, z0
		var tt float32
		switch {
		case fx > 0:
			x1, tt = x0+1, fx
		case fy > 0:
			y1, tt = y0+1, fy
		case fz > 0:
			z1, tt = z0+1, fz
		}
		a, b := g.At(x0, y0, z0), g.At(x1, y1, z1)
		return a + tt*(b-a)
	}
	checked := 0
	for _, tr := range mesh.ExpandSoup()[:min(500, mesh.Len())] {
		for _, p := range []geom.Vec3{tr.A, tr.B, tr.C} {
			v := interp(p)
			if v < 0 {
				t.Fatalf("vertex %v not on a cell edge", p)
			}
			if math.Abs(float64(v-iso)) > 0.01 {
				t.Fatalf("vertex %v interpolates to %v, want %v", p, v, iso)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestGridActiveCellCount(t *testing.T) {
	// For the linear field x, iso 2.5 cuts exactly the cells between x=2 and
	// x=3: one yz-slab of cells.
	g := volume.New(6, 4, 4, volume.U8)
	g.Fill(func(x, y, z int) float32 { return float32(x) })
	_, active := Grid(g, 2.5)
	if want := 3 * 3; active != want {
		t.Errorf("active cells = %d, want %d", active, want)
	}
}

func TestIsoBelowAndAboveRange(t *testing.T) {
	g := volume.Sphere(12)
	if m, a := Grid(g, -1); m.Len() != 0 || a != 0 {
		t.Error("isovalue below range should produce nothing")
	}
	if m, a := Grid(g, 300); m.Len() != 0 || a != 0 {
		t.Error("isovalue above range should produce nothing")
	}
}
