package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float32) bool {
	return float32(math.Abs(float64(a-b))) <= eps
}

func TestVecArithmetic(t *testing.T) {
	v := V(1, 2, 3)
	w := V(4, -5, 6)
	if got := v.Add(w); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 1*4+2*-5+3*6 {
		t.Errorf("Dot = %v", got)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float32) bool {
		// Keep magnitudes in a range where float32 products cannot overflow.
		bound := func(v float32) bool {
			return v == v && v > -1e6 && v < 1e6
		}
		for _, v := range []float32{ax, ay, az, bx, by, bz} {
			if !bound(v) {
				return true // out of scope for this property
			}
		}
		a, b := V(ax, ay, az), V(bx, by, bz)
		c := a.Cross(b)
		// Tolerance scales with magnitudes.
		tol := (a.Len() + 1) * (b.Len() + 1) * 1e-3
		return almostEq(c.Dot(a), 0, tol) && almostEq(c.Dot(b), 0, tol)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCrossBasis(t *testing.T) {
	if got := V(1, 0, 0).Cross(V(0, 1, 0)); got != V(0, 0, 1) {
		t.Errorf("x cross y = %v, want z", got)
	}
}

func TestNormalize(t *testing.T) {
	n := V(3, 4, 0).Normalize()
	if !almostEq(n.Len(), 1, 1e-6) {
		t.Errorf("normalized length = %v", n.Len())
	}
	if z := (Vec3{}).Normalize(); z != (Vec3{}) {
		t.Errorf("zero normalize = %v", z)
	}
}

func TestLerp(t *testing.T) {
	a, b := V(0, 0, 0), V(2, 4, 6)
	if got := a.Lerp(b, 0.5); got != V(1, 2, 3) {
		t.Errorf("Lerp = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestTriangleAreaNormal(t *testing.T) {
	tr := Triangle{A: V(0, 0, 0), B: V(1, 0, 0), C: V(0, 1, 0)}
	if !almostEq(tr.Area(), 0.5, 1e-6) {
		t.Errorf("area = %v", tr.Area())
	}
	if n := tr.UnitNormal(); !almostEq(n.Z, 1, 1e-6) {
		t.Errorf("normal = %v", n)
	}
	if tr.Degenerate() {
		t.Error("non-degenerate triangle reported degenerate")
	}
	deg := Triangle{A: V(0, 0, 0), B: V(1, 1, 1), C: V(2, 2, 2)}
	if !deg.Degenerate() {
		t.Error("degenerate triangle not detected")
	}
}

func TestTriangleCentroid(t *testing.T) {
	tr := Triangle{A: V(0, 0, 0), B: V(3, 0, 0), C: V(0, 3, 0)}
	if got := tr.Centroid(); got != V(1, 1, 0) {
		t.Errorf("centroid = %v", got)
	}
}

func TestMesh(t *testing.T) {
	var m Mesh
	if m.Len() != 0 || !m.Bounds().Empty() {
		t.Fatal("empty mesh not empty")
	}
	m.Append(Triangle{A: V(0, 0, 0), B: V(1, 0, 0), C: V(0, 1, 0)})
	m.Append(Triangle{A: V(-1, 2, 3), B: V(1, 0, 0), C: V(0, 1, 0)})
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	b := m.Bounds()
	if b.Min != V(-1, 0, 0) || b.Max != V(1, 2, 3) {
		t.Errorf("bounds = %+v", b)
	}
}

func TestAABB(t *testing.T) {
	e := EmptyAABB()
	if !e.Empty() {
		t.Fatal("EmptyAABB not empty")
	}
	b := e.ExtendPoint(V(1, 2, 3))
	if b.Empty() || b.Min != V(1, 2, 3) || b.Max != V(1, 2, 3) {
		t.Fatal("ExtendPoint failed")
	}
	b = b.ExtendPoint(V(-1, 0, 5))
	if b.Min != V(-1, 0, 3) || b.Max != V(1, 2, 5) {
		t.Errorf("box = %v..%v, want (-1,0,3)..(1,2,5)", b.Min, b.Max)
	}
	if c := b.Center(); c != V(0, 1, 4) {
		t.Errorf("center = %v", c)
	}
	if s := b.Size(); s != V(2, 2, 2) {
		t.Errorf("size = %v", s)
	}
}

func TestAABBUnion(t *testing.T) {
	a := EmptyAABB().ExtendPoint(V(0, 0, 0)).ExtendPoint(V(1, 1, 1))
	b := EmptyAABB().ExtendPoint(V(2, 2, 2)).ExtendPoint(V(3, 3, 3))
	u := a.Union(b)
	if u.Min != V(0, 0, 0) || u.Max != V(3, 3, 3) {
		t.Errorf("union = %+v", u)
	}
	if got := EmptyAABB().Union(a); got != a {
		t.Errorf("empty union = %+v", got)
	}
	if got := a.Union(EmptyAABB()); got != a {
		t.Errorf("union empty = %+v", got)
	}
}

func TestNewellNormal(t *testing.T) {
	// CCW unit square in the XY plane has Newell normal (0,0,+2·area).
	poly := []Vec3{V(0, 0, 0), V(1, 0, 0), V(1, 1, 0), V(0, 1, 0)}
	n := NewellNormal(poly)
	if !almostEq(n.X, 0, 1e-6) || !almostEq(n.Y, 0, 1e-6) || n.Z <= 0 {
		t.Errorf("Newell normal = %v", n)
	}
	if !almostEq(n.Len()/2, 1, 1e-6) {
		t.Errorf("Newell magnitude/2 = %v, want polygon area 1", n.Len()/2)
	}
}

// TestExpandIntoAmortized appends many small welded batches into one mesh
// three ways: into an unsized mesh (growth must be amortized, not one exact
// reallocation per batch), into a mesh grown to the known total, and by hand,
// every index rebased past the vertices before it.
func TestExpandIntoAmortized(t *testing.T) {
	const batches = 1000
	batch := func(b int) *Mesh {
		f := float32(b)
		return &Mesh{
			Verts: []Vec3{V(f, 0, 0), V(f, 1, 0), V(f, 0, 1), V(f, 1, 1)},
			Idx:   []uint32{0, 1, 2, 2, 1, 3, 3, 0, 2},
		}
	}
	var all []*Mesh
	whole := &Mesh{} // every batch appended by hand, indices rebased
	for b := 0; b < batches; b++ {
		im := batch(b)
		all = append(all, im)
		base := uint32(whole.NumVerts())
		whole.Verts = append(whole.Verts, im.Verts...)
		for _, i := range im.Idx {
			whole.Idx = append(whole.Idx, base+i)
		}
	}
	if whole.Len() != 3*batches {
		t.Fatalf("the whole mesh has %d triangles, want %d", whole.Len(), 3*batches)
	}
	if got := testing.AllocsPerRun(5, func() { whole.ExpandSoup() }); got != 1 {
		t.Errorf("ExpandSoup allocates %v times, want its triangles alone", got)
	}

	var staged Mesh
	allocs := testing.AllocsPerRun(5, func() {
		staged = Mesh{}
		for _, im := range all {
			im.ExpandInto(&staged)
		}
	})
	// append's growth is geometric, at least 1.25× a step: ~40 steps to
	// 9000 indices and as many to 4000 vertices, where exact growth pays one
	// reallocation per batch and array.
	if allocs > 100 {
		t.Errorf("appending %d batches into an unsized mesh allocates %v times, want O(log n)", batches, allocs)
	}
	if !slices.Equal(staged.Verts, whole.Verts) || !slices.Equal(staged.Idx, whole.Idx) {
		t.Error("batch-by-batch appending differs from the mesh built by hand")
	}

	sized := Mesh{Verts: make([]Vec3, 0, whole.NumVerts())}
	sized.Grow(whole.Len())
	if got := testing.AllocsPerRun(5, func() {
		sized.Reset()
		for _, im := range all {
			im.ExpandInto(&sized)
		}
	}); got != 0 {
		t.Errorf("appending into a mesh grown to the total allocates %v times, want 0", got)
	}
	if !slices.Equal(sized.Verts, whole.Verts) || !slices.Equal(sized.Idx, whole.Idx) {
		t.Error("appending into a pre-grown mesh differs from the mesh built by hand")
	}
	if !slices.Equal(bitsOf(sized.ExpandSoup()), bitsOf(whole.ExpandSoup())) {
		t.Error("the appended mesh expands to another soup")
	}
}

// TestMeshTriangle holds Triangle and Append to the soup they describe:
// Append's three vertices a triangle read back through the indices.
func TestMeshTriangle(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	var soup []Triangle
	for range 20 {
		soup = append(soup, Triangle{V(rnd.Float32(), rnd.Float32(), 0), V(rnd.Float32(), 0, rnd.Float32()), V(0, rnd.Float32(), rnd.Float32())})
	}
	var m Mesh
	m.Append(soup[:5]...)
	m.Append(soup[5:]...)
	if m.NumVerts() != 3*len(soup) || m.Len() != len(soup) {
		t.Fatalf("Append of %d triangles: %d vertices, %d triangles", len(soup), m.NumVerts(), m.Len())
	}
	for i, tr := range soup {
		if m.Triangle(i) != tr {
			t.Fatalf("Triangle(%d) = %v, want %v", i, m.Triangle(i), tr)
		}
	}
	if !slices.Equal(m.ExpandSoup(), soup) {
		t.Error("ExpandSoup differs from the appended triangles")
	}
}

// TestGatherIntoParts is the pipeline's expand phase in small: batches
// gathered, last first, into their own parts of one soup allocated at its
// length give ExpandSoup's bytes and allocate nothing, and a part of the wrong
// length — a prefix sum gone wrong — panics instead of tearing the soup.
func TestGatherIntoParts(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	var batches []*Mesh
	whole, total := &Mesh{}, 0
	for b := 0; b < 50; b++ {
		im := &Mesh{}
		for v := rnd.Intn(40) + 1; v > 0; v-- {
			im.Verts = append(im.Verts, V(rnd.Float32(), float32(math.NaN()), float32(b)))
		}
		for k := 3 * rnd.Intn(60); k > 0; k-- { // some batches weld to nothing
			im.Idx = append(im.Idx, uint32(rnd.Intn(len(im.Verts))))
		}
		base := uint32(whole.NumVerts())
		whole.Verts = append(whole.Verts, im.Verts...)
		for _, i := range im.Idx {
			whole.Idx = append(whole.Idx, base+i)
		}
		batches = append(batches, im)
		total += im.Len()
	}
	soup := make([]Triangle, total)
	if allocs := testing.AllocsPerRun(3, func() {
		end := total
		for b := len(batches) - 1; b >= 0; b-- {
			batches[b].Gather(soup[end-batches[b].Len() : end])
			end -= batches[b].Len()
		}
	}); allocs != 0 {
		t.Errorf("gathering into a sized soup allocates %v times", allocs)
	}
	// Bit for bit: the NaNs compare unequal as floats.
	if want := whole.ExpandSoup(); !slices.Equal(bitsOf(soup), bitsOf(want)) {
		t.Error("gathered parts differ from the one-shot expansion")
	}

	for _, n := range []int{total - 1, total + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gather of %d triangles into %d did not panic", total, n)
				}
			}()
			whole.Gather(make([]Triangle, n))
		}()
	}
}

// bitsOf is the soup's coordinates as their bit patterns.
func bitsOf(tris []Triangle) []uint32 {
	var out []uint32
	for _, t := range tris {
		for _, v := range []Vec3{t.A, t.B, t.C} {
			out = append(out, math.Float32bits(v.X), math.Float32bits(v.Y), math.Float32bits(v.Z))
		}
	}
	return out
}
