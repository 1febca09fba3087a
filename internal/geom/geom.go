// Package geom provides the small set of geometric primitives shared by the
// isosurface pipeline: 3-vectors, triangles, welded triangle meshes (shared
// vertices plus index triples, from the weld to the client) and axis-aligned
// bounding boxes.
//
// Everything is float32-based: the pipeline produces hundreds of millions of
// vertices and the paper's data is one-byte scalar, so single precision is
// both sufficient and half the memory traffic.
package geom

import (
	"math"
	"slices"
)

// Vec3 is a 3-component single-precision vector.
type Vec3 struct {
	X, Y, Z float32
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float32) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float32) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float32 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec3) Len() float32 {
	return float32(math.Sqrt(float64(v.Dot(v))))
}

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Lerp returns v + t*(w-v).
func (v Vec3) Lerp(w Vec3, t float32) Vec3 {
	return Vec3{
		v.X + t*(w.X-v.X),
		v.Y + t*(w.Y-v.Y),
		v.Z + t*(w.Z-v.Z),
	}
}

// Triangle is a single isosurface triangle with per-vertex positions.
type Triangle struct {
	A, B, C Vec3
}

// Normal returns the (unnormalized) geometric normal (B-A)×(C-A).
func (t Triangle) Normal() Vec3 {
	return t.B.Sub(t.A).Cross(t.C.Sub(t.A))
}

// UnitNormal returns the unit geometric normal, or the zero vector for a
// degenerate triangle.
func (t Triangle) UnitNormal() Vec3 { return t.Normal().Normalize() }

// Area returns the triangle's area.
func (t Triangle) Area() float32 { return t.Normal().Len() / 2 }

// Centroid returns the barycenter of the triangle.
func (t Triangle) Centroid() Vec3 {
	return t.A.Add(t.B).Add(t.C).Scale(1.0 / 3.0)
}

// Degenerate reports whether the triangle has (near-)zero area.
func (t Triangle) Degenerate() bool { return t.Area() < 1e-12 }

// Mesh is a surface in the one form it takes from the weld to the client:
// vertices plus index triples, each edge crossing interpolated once and
// shared by its triangles (≈ 19.6 B a triangle, where a soup takes 36).
// ExpandSoup recovers the soup byte for byte; only the oracles and the
// version 1 wire encoder build one.
type Mesh struct {
	Verts []Vec3
	Idx   []uint32 // triples, one per triangle corner
}

// IndexedMesh is another name for Mesh.
type IndexedMesh = Mesh

// Append adds triangles, three new vertices apiece, as march.Grid does.
func (m *Mesh) Append(ts ...Triangle) {
	for _, t := range ts {
		base := uint32(len(m.Verts))
		m.Verts = append(m.Verts, t.A, t.B, t.C)
		m.Idx = append(m.Idx, base, base+1, base+2)
	}
}

// Grow ensures index capacity for at least n more triangles, exactly, so a
// known-size bulk append pays one allocation of the final size instead of
// append's growth walk.
func (m *Mesh) Grow(n int) {
	if need := len(m.Idx) + 3*n; need > cap(m.Idx) {
		m.Idx = append(make([]uint32, 0, need), m.Idx...)
	}
}

// Len returns the number of triangles.
func (m *Mesh) Len() int { return len(m.Idx) / 3 }

// NumVerts returns the number of vertices.
func (m *Mesh) NumVerts() int { return len(m.Verts) }

// Reset empties the mesh, keeping both allocations for reuse.
func (m *Mesh) Reset() {
	m.Verts = m.Verts[:0]
	m.Idx = m.Idx[:0]
}

// Triangle returns triangle i, its corners looked up through the indices.
func (m *Mesh) Triangle(i int) Triangle {
	f := m.Idx[3*i : 3*i+3]
	return Triangle{A: m.Verts[f[0]], B: m.Verts[f[1]], C: m.Verts[f[2]]}
}

// Bounds returns the axis-aligned bounding box of the mesh's vertices. An
// empty mesh yields an empty AABB.
func (m *Mesh) Bounds() AABB {
	b := EmptyAABB()
	for _, v := range m.Verts {
		b = b.ExtendPoint(v)
	}
	return b
}

// ExpandSoup returns the mesh's triangles in order: the oracles' soup.
func (m *Mesh) ExpandSoup() []Triangle {
	out := make([]Triangle, m.Len())
	m.Gather(out)
	return out
}

// ExpandInto appends the mesh to dst, its indices rebased past dst's
// vertices. A dst with room is written in place; one without grows the way
// append does, so appending batch after batch into an unsized mesh copies a
// constant factor of the result, not its square.
func (m *Mesh) ExpandInto(dst *Mesh) {
	base, at := uint32(len(dst.Verts)), len(dst.Idx)
	dst.Verts = append(dst.Verts, m.Verts...)
	dst.Idx = slices.Grow(dst.Idx, len(m.Idx))[:at+len(m.Idx)]
	Rebase(dst.Idx[at:], m.Idx, base)
}

// Rebase writes each index of src plus base into dst (as long, and maybe src
// itself) and returns src's largest index, 0 for none, so a caller checks
// them all with one compare: two max chains, four indices a turn. It is the
// portable rebase, with plain stores: the engine's expand phase runs it, and
// so does the wire decoder off amd64, for the head and tail of each chunk
// around its streaming-store kernel, and as that kernel's oracle.
func Rebase[I uint16 | uint32](dst []uint32, src []I, base uint32) (top uint32) {
	dst = dst[:len(src)]
	var t0, t1 uint32
	i := 0
	for ; i+4 <= len(src); i += 4 {
		s, d := src[i:i+4:i+4], dst[i:i+4:i+4]
		a, b, c, e := uint32(s[0]), uint32(s[1]), uint32(s[2]), uint32(s[3])
		d[0], d[1], d[2], d[3] = a+base, b+base, c+base, e+base
		t0, t1 = max(t0, a, b), max(t1, c, e)
	}
	for ; i < len(src); i++ {
		x := uint32(src[i])
		dst[i] = x + base
		t0 = max(t0, x)
	}
	return max(t0, t1)
}

// Gather writes the mesh's triangles, in order, into out, which must be
// exactly Len() long: the caller has sized the soup and owns this part of
// it, so many meshes gather into disjoint parts of one soup at once.
func (m *Mesh) Gather(out []Triangle) {
	if len(out) != m.Len() {
		panic("geom: Gather into a slice that is not the mesh's length")
	}
	if !Gather(out, m.Verts, m.Idx) {
		panic("geom: Gather of an index past the mesh's vertices")
	}
}

// AABB is an axis-aligned bounding box. Min > Max (component-wise) denotes the
// empty box, as produced by EmptyAABB.
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns the identity element for ExtendPoint/Union.
func EmptyAABB() AABB {
	inf := float32(math.Inf(1))
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// Empty reports whether the box contains no points.
func (b AABB) Empty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// ExtendPoint returns the smallest box containing b and p.
func (b AABB) ExtendPoint(p Vec3) AABB {
	return AABB{
		Min: Vec3{min32(b.Min.X, p.X), min32(b.Min.Y, p.Y), min32(b.Min.Z, p.Z)},
		Max: Vec3{max32(b.Max.X, p.X), max32(b.Max.Y, p.Y), max32(b.Max.Z, p.Z)},
	}
}

// Union returns the smallest box containing both boxes.
func (b AABB) Union(o AABB) AABB {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return b.ExtendPoint(o.Min).ExtendPoint(o.Max)
}

// Center returns the box center; meaningless for an empty box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the box extents; meaningless for an empty box.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

func min32(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// NewellNormal computes the Newell normal of a (possibly non-planar) polygon
// given by its vertices in order. The result is unnormalized; its direction
// follows the right-hand rule around the vertex order.
func NewellNormal(poly []Vec3) Vec3 {
	var n Vec3
	for i, p := range poly {
		q := poly[(i+1)%len(poly)]
		n.X += (p.Y - q.Y) * (p.Z + q.Z)
		n.Y += (p.Z - q.Z) * (p.X + q.X)
		n.Z += (p.X - q.X) * (p.Y + q.Y)
	}
	return n
}
