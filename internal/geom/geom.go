// Package geom provides the small set of geometric primitives shared by the
// isosurface pipeline: 3-vectors, triangles, triangle meshes and axis-aligned
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

// Mesh is a flat triangle soup. Marching cubes emits disconnected triangles;
// the renderer consumes them directly, so no shared-vertex indexing is kept.
type Mesh struct {
	Tris []Triangle
}

// Append adds triangles to the mesh.
func (m *Mesh) Append(ts ...Triangle) { m.Tris = append(m.Tris, ts...) }

// Grow ensures capacity for at least n more triangles, exactly, so a
// known-size bulk append pays one allocation of the final size instead of
// append's growth walk.
func (m *Mesh) Grow(n int) {
	if need := len(m.Tris) + n; need > cap(m.Tris) {
		grown := make([]Triangle, len(m.Tris), need)
		copy(grown, m.Tris)
		m.Tris = grown
	}
}

// Len returns the number of triangles.
func (m *Mesh) Len() int { return len(m.Tris) }

// Bounds returns the axis-aligned bounding box of the mesh. An empty mesh
// yields an empty AABB.
func (m *Mesh) Bounds() AABB {
	b := EmptyAABB()
	for _, t := range m.Tris {
		b = b.ExtendPoint(t.A)
		b = b.ExtendPoint(t.B)
		b = b.ExtendPoint(t.C)
	}
	return b
}

// TotalArea returns the summed area of all triangles.
func (m *Mesh) TotalArea() float64 {
	var a float64
	for _, t := range m.Tris {
		a += float64(t.Area())
	}
	return a
}

// IndexedMesh is a welded triangle mesh: a vertex array plus index triples.
// The extraction hot path emits one, interpolating each edge crossing once
// and referencing it from every incident triangle — roughly 6× less vertex
// data than the equivalent soup. ExpandSoup recovers the soup exactly
// (marching cubes interpolates shared edges from identical inputs, so the
// expansion is byte-identical to a soup built cell by cell).
type IndexedMesh struct {
	Verts []Vec3
	Idx   []uint32 // triples, one per triangle corner
}

// Len returns the number of triangles.
func (im *IndexedMesh) Len() int { return len(im.Idx) / 3 }

// NumVerts returns the number of welded vertices.
func (im *IndexedMesh) NumVerts() int { return len(im.Verts) }

// Reset empties the mesh, keeping both allocations for reuse.
func (im *IndexedMesh) Reset() {
	im.Verts = im.Verts[:0]
	im.Idx = im.Idx[:0]
}

// ExpandSoup converts the indexed mesh back to a triangle soup, in triangle
// order.
func (im *IndexedMesh) ExpandSoup() *Mesh {
	out := &Mesh{}
	im.ExpandInto(out)
	return out
}

// ExpandInto appends the indexed mesh's triangles to dst. A dst with room
// (Grow'n to a known total) is written in place; one without grows the way
// append does, so expanding batch after batch into an unsized mesh copies a
// constant factor of the result, not its square.
func (im *IndexedMesh) ExpandInto(dst *Mesh) {
	n := im.Len()
	base := len(dst.Tris)
	dst.Tris = slices.Grow(dst.Tris, n)[:base+n]
	im.Gather(dst.Tris[base:])
}

// Gather writes the indexed mesh's triangles, in order, into out, which must
// be exactly Len() long: the caller has sized the soup and owns this part of
// it, so many meshes gather into disjoint parts of one allocation at once.
func (im *IndexedMesh) Gather(out []Triangle) {
	if len(out) != im.Len() {
		panic("geom: Gather into a slice that is not the mesh's length")
	}
	if !Gather(out, im.Verts, im.Idx) {
		panic("geom: Gather of an index past the mesh's vertices")
	}
}

// Bounds returns the axis-aligned bounding box of the mesh's vertices.
func (im *IndexedMesh) Bounds() AABB {
	b := EmptyAABB()
	for _, v := range im.Verts {
		b = b.ExtendPoint(v)
	}
	return b
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
