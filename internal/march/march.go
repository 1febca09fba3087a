package march

import (
	"math/bits"
	"slices"

	"repro/internal/geom"
	"repro/internal/metacell"
	"repro/internal/volume"
)

// Config classifies the eight corner values of a cell against an isovalue:
// bit c is set when v[c] >= iso.
func Config(v *[8]float32, iso float32) uint8 {
	var cfg uint8
	for c := 0; c < 8; c++ {
		if v[c] >= iso {
			cfg |= 1 << c
		}
	}
	return cfg
}

// cell triangulates one unit cell with corner values v and minimum corner at
// origin, appending triangles to out. It reports whether the cell was active
// (intersected by the isosurface).
func cell(v *[8]float32, origin geom.Vec3, iso float32, out *geom.Mesh) bool {
	cfg := Config(v, iso)
	n := int(triCount[cfg])
	if n == 0 {
		return false
	}
	// Interpolate each referenced edge's crossing point once.
	var pts [12]geom.Vec3
	for mask := cutEdgeMask[cfg]; mask != 0; mask &= mask - 1 {
		e := bits.TrailingZeros16(mask)
		a, b := edgeCorners[e][0], edgeCorners[e][1]
		va, vb := v[a], v[b]
		t := (iso - va) / (vb - va) // va != vb: exactly one side is inside
		pa := geom.V(float32(cornerOffset[a][0]), float32(cornerOffset[a][1]), float32(cornerOffset[a][2]))
		pb := geom.V(float32(cornerOffset[b][0]), float32(cornerOffset[b][1]), float32(cornerOffset[b][2]))
		pts[e] = origin.Add(pa.Lerp(pb, t))
	}
	tris := &triTable[cfg]
	var ts [5]geom.Triangle
	for i := 0; i < n; i++ {
		ts[i] = geom.Triangle{A: pts[tris[3*i]], B: pts[tris[3*i+1]], C: pts[tris[3*i+2]]}
	}
	out.Append(ts[:n]...)
	return true
}

// Metacell triangulates every cell of a decoded metacell at the given
// isovalue, appending triangles (in volume coordinates) to out. It returns
// the number of active cells.
//
// This is the triangle-soup baseline: each cell interpolates its own copy of
// every edge crossing. The streaming pipeline uses Welder.Metacell, whose
// expanded output is byte-identical; this path is kept as the equivalence
// reference and for callers that want a soup directly.
//
// Cells that extend past the volume boundary (possible only in truncated
// edge metacells, where samples were clamp-padded) are skipped so no
// spurious geometry is generated outside the data.
func Metacell(l metacell.Layout, m *metacell.Meta, iso float32, out *geom.Mesh) int {
	ox, oy, oz := l.Origin(m.ID)
	span := l.Span
	active := 0
	var v [8]float32
	for dz := 0; dz < span-1; dz++ {
		if oz+dz+1 >= l.Nz {
			break
		}
		for dy := 0; dy < span-1; dy++ {
			if oy+dy+1 >= l.Ny {
				break
			}
			row := (dz*span + dy) * span
			for dx := 0; dx < span-1; dx++ {
				if ox+dx+1 >= l.Nx {
					break
				}
				i := row + dx
				v[0] = m.Samples[i]
				v[1] = m.Samples[i+1]
				v[2] = m.Samples[i+span]
				v[3] = m.Samples[i+span+1]
				v[4] = m.Samples[i+span*span]
				v[5] = m.Samples[i+span*span+1]
				v[6] = m.Samples[i+span*span+span]
				v[7] = m.Samples[i+span*span+span+1]
				origin := geom.V(float32(ox+dx), float32(oy+dy), float32(oz+dz))
				if cell(&v, origin, iso, out) {
					active++
				}
			}
		}
	}
	return active
}

// Welder triangulates metacells into indexed meshes, welding the vertices
// cells share, in three passes over one metacell. Classification turns every
// sample row into an inside bitmask (bit x set = sample >= iso). The vertex
// pass finds every grid edge the isosurface cuts by xor-ing masks — a row
// with itself shifted by one sample for x-edges, with the next row for
// y-edges, with the row one plane up for z-edges — interpolates each crossing
// once, and records its vertex index in an edge table keyed by the edge's
// lower sample and axis. The triangle pass derives each cell row's
// active-cell mask from its four sample-row masks, bit-scans it so inactive
// cells cost nothing, and emits every triangle's indices straight from the
// edge table.
//
// Each crossing is interpolated once per metacell instead of once per
// incident cell (up to 4× for an edge shared by four cells), and because the
// interpolation reads the same two samples with the same lerp, ExpandSoup of
// the result is byte-identical to Metacell's soup. Triangles come out in the
// soup's order; vertices in the vertex pass's.
//
// The edge table is never cleared. A cell's triangles name only edges that
// are cut, every cut edge of a cell inside the extent is itself inside the
// extent, and the vertex pass has just written all of those: an entry left
// behind by an earlier metacell, isovalue or span is never read.
//
// The zero value is ready to use; scratch arrays are sized on first use and
// reused, so a long-lived Welder (one per pipeline worker) allocates nothing
// in steady state. A Welder is not safe for concurrent use.
type Welder struct {
	span  int
	masks []uint64 // per (z*span+y) sample row: bit x set = sample >= iso; spans up to maskSpan
	// edge[3*i+a] is the index of the vertex on the grid edge that leaves
	// sample i along axis a (0 = x, 1 = y, 2 = z).
	edge []uint32
	// edgeOff[e] is where cube edge e's entry sits in the edge table, relative
	// to the x-edge entry of the cell's corner 0. Twelve are used; sixteen let
	// an index masked to four bits go unchecked.
	edgeOff [16]int
}

// maskSpan is the widest span whose sample rows fit one mask word.
const maskSpan = 64

// resize prepares the scratch arrays for a metacell span.
func (w *Welder) resize(span int) {
	if w.span == span {
		return
	}
	w.span = span
	w.masks = make([]uint64, span*span)
	w.edge = make([]uint32, 3*span*span*span)
	for e, c := range edgeCorners {
		w.edgeOff[e] = 3*sampleOffset(span, c[0]) + e/4 // edges 0..3 run along x, 4..7 along y, 8..11 along z
	}
}

// extent is how many cells of a metacell lie inside the volume along each
// axis; samples 0..cx × 0..cy × 0..cz are their corners.
type extent struct{ cx, cy, cz int }

// Metacell triangulates every cell of a decoded metacell, welding vertices
// into out (an indexed mesh that may already hold earlier metacells'
// geometry). It returns the number of active cells — the same count, and in
// ExpandSoup form the same bytes, as the Metacell soup baseline.
func (w *Welder) Metacell(l metacell.Layout, m *metacell.Meta, iso float32, out *geom.IndexedMesh) int {
	ox, oy, oz := l.Origin(m.ID)
	// Truncated at the volume boundary exactly as the soup baseline's break
	// conditions do.
	ext := extent{min(l.Span-1, l.Nx-1-ox), min(l.Span-1, l.Ny-1-oy), min(l.Span-1, l.Nz-1-oz)}
	if ext.cx <= 0 || ext.cy <= 0 || ext.cz <= 0 {
		return 0
	}
	origin := [3]int{ox, oy, oz}
	w.resize(l.Span)
	if l.Span > maskSpan {
		return w.metacellWide(m.Samples, iso, ext, origin, out)
	}
	w.classify(m.Samples, iso, ext)
	w.vertices(m.Samples, iso, ext, origin, out)
	return w.triangles(ext, out)
}

// classify is pass 1: every sample row of the extent becomes an inside mask.
func (w *Welder) classify(samples []float32, iso float32, ext extent) {
	span := w.span
	for z := 0; z <= ext.cz; z++ {
		for y := 0; y <= ext.cy; y++ {
			r := z*span + y
			row := samples[r*span : r*span+ext.cx+1]
			// Last sample first, so that each bit arrives by a constant shift.
			var mask uint64
			for x := len(row) - 1; x >= 0; x-- {
				var in uint64
				if row[x] >= iso {
					in = 1
				}
				mask = mask<<1 | in
			}
			w.masks[r] = mask
		}
	}
}

// axisDir[a] is the unit step along axis a: where an edge's far end lies from
// its lower sample, as the soup baseline's corner offsets have it.
var axisDir = [3]geom.Vec3{{X: 1}, {Y: 1}, {Z: 1}}

// crossing returns the point at which the isosurface cuts the grid edge that
// runs from the sample at p, of value va, one step along dir to a sample of
// value vb. It is the soup baseline's expression for the cell that has p as
// corner 0, and every other cell around the edge computes the same bits.
func crossing(p, dir geom.Vec3, va, vb, iso float32) geom.Vec3 {
	t := (iso - va) / (vb - va) // va != vb: exactly one side is inside
	return p.Add(geom.Vec3{}.Lerp(dir, t))
}

// vertices is pass 2: one vertex per cut grid edge of the extent, appended to
// out and entered in the edge table. Two samples on opposite sides of the
// isovalue differ in their mask bit, so the cut edges leaving a sample row
// are the set bits of an xor.
func (w *Welder) vertices(samples []float32, iso float32, ext extent, origin [3]int, out *geom.IndexedMesh) {
	span, masks, edge := w.span, w.masks, w.edge
	step := [3]int{1, span, span * span} // sample-index distance to an edge's far end
	xBits := uint64(1)<<ext.cx - 1       // samples 0..cx-1: an x-edge leaves each
	sBits := xBits<<1 | 1                // samples 0..cx, all 64 bits at cx = 63
	verts := out.Verts
	for z := 0; z <= ext.cz; z++ {
		for y := 0; y <= ext.cy; y++ {
			r := z*span + y
			cut := [3]uint64{(masks[r] ^ masks[r]>>1) & xBits, 0, 0}
			if y < ext.cy {
				cut[1] = (masks[r] ^ masks[r+1]) & sBits
			}
			if z < ext.cz {
				cut[2] = (masks[r] ^ masks[r+span]) & sBits
			}
			n := bits.OnesCount64(cut[0]) + bits.OnesCount64(cut[1]) + bits.OnesCount64(cut[2])
			if n == 0 {
				continue
			}
			// Room for the row's vertices once, then stores by index.
			nv := len(verts)
			verts = slices.Grow(verts, n)[:nv+n]
			p := geom.V(0, float32(origin[1]+y), float32(origin[2]+z))
			for a, c := range cut {
				for ; c != 0; c &= c - 1 {
					x := bits.TrailingZeros64(c)
					i := r*span + x
					p.X = float32(origin[0] + x)
					verts[nv] = crossing(p, axisDir[a], samples[i], samples[i+step[a]], iso)
					edge[3*i+a] = uint32(nv)
					nv++
				}
			}
		}
	}
	out.Verts = verts
}

// triangles is pass 3, and returns the number of active cells. A cell is
// active when some but not all of its eight corners are inside; or-ing and
// and-ing its four sample rows, each with itself shifted by one sample,
// decides that for a whole row of cells at once.
func (w *Welder) triangles(ext extent, out *geom.IndexedMesh) int {
	span, masks, edge := w.span, w.masks, w.edge
	xBits := uint64(1)<<ext.cx - 1 // cells 0..cx-1
	idx := out.Idx
	active := 0
	for z := 0; z < ext.cz; z++ {
		for y := 0; y < ext.cy; y++ {
			r := z*span + y
			m00, m10, m01, m11 := masks[r], masks[r+1], masks[r+span], masks[r+span+1]
			some, all := m00|m10|m01|m11, m00&m10&m01&m11
			act := (some | some>>1) &^ (all & (all >> 1)) & xBits
			if act == 0 {
				continue
			}
			n := bits.OnesCount64(act)
			active += n
			// Room for the row's triangles once, then stores by index.
			ni := len(idx)
			idx = slices.Grow(idx, maxCellIdx*n)[:ni+maxCellIdx*n]
			for ; act != 0; act &= act - 1 {
				x := bits.TrailingZeros64(act)
				cfg := uint8(m00>>x&3) | uint8(m10>>x&3)<<2 | uint8(m01>>x&3)<<4 | uint8(m11>>x&3)<<6
				ni += w.emit(idx[ni:], edge[3*(r*span+x):], cfg)
			}
			idx = idx[:ni]
		}
	}
	out.Idx = idx
	return active
}

// maxCellIdx is the most indices one cell emits: five triangles.
const maxCellIdx = 15

// emit writes the index triples of a cell of configuration cfg to dst, which
// has room for maxCellIdx, and returns how many indices that was. slots is
// the edge table from the x-edge entry of the cell's corner 0 on.
func (w *Welder) emit(dst, slots []uint32, cfg uint8) int {
	tri, off := &triTable[cfg], &w.edgeOff
	n := 3 * int(triCount[cfg])
	for k := 0; k < n; k += 3 {
		dst[k], dst[k+1], dst[k+2] = slots[off[tri[k]&15]], slots[off[tri[k+1]&15]], slots[off[tri[k+2]&15]]
	}
	return n
}

// metacellWide is Metacell for spans whose sample rows do not fit one mask
// word: the same two passes over the same edge table, with every sample and
// every cell classified by comparing, as the soup baseline does.
func (w *Welder) metacellWide(samples []float32, iso float32, ext extent, origin [3]int, out *geom.IndexedMesh) int {
	span := w.span
	step := [3]int{1, span, span * span}
	last := [3]int{ext.cx, ext.cy, ext.cz}
	for z := 0; z <= ext.cz; z++ {
		for y := 0; y <= ext.cy; y++ {
			for x := 0; x <= ext.cx; x++ {
				i := (z*span+y)*span + x
				p := geom.V(float32(origin[0]+x), float32(origin[1]+y), float32(origin[2]+z))
				for a, at := range [3]int{x, y, z} {
					if at < last[a] && (samples[i] >= iso) != (samples[i+step[a]] >= iso) {
						w.edge[3*i+a] = uint32(len(out.Verts))
						out.Verts = append(out.Verts, crossing(p, axisDir[a], samples[i], samples[i+step[a]], iso))
					}
				}
			}
		}
	}
	active := 0
	for z := 0; z < ext.cz; z++ {
		for y := 0; y < ext.cy; y++ {
			for x := 0; x < ext.cx; x++ {
				i := (z*span+y)*span + x
				var v [8]float32
				for c := range v {
					v[c] = samples[i+sampleOffset(span, c)]
				}
				cfg := Config(&v, iso)
				if triCount[cfg] == 0 {
					continue
				}
				active++
				ni := len(out.Idx)
				dst := slices.Grow(out.Idx, maxCellIdx)[:ni+maxCellIdx]
				out.Idx = dst[:ni+w.emit(dst[ni:], w.edge[3*i:], cfg)]
			}
		}
	}
	return active
}

// sampleOffset returns the flat sample-index offset of cube corner c for a
// metacell of the given span.
func sampleOffset(span, c int) int {
	return (c & 1) + span*(c>>1&1) + span*span*(c>>2&1)
}

// Grid triangulates an entire in-memory volume directly, bypassing the
// metacell machinery. It is the reference implementation the out-of-core
// pipeline is validated against in tests, and is also useful for small
// datasets.
func Grid(g *volume.Grid, iso float32) (*geom.Mesh, int) {
	var out geom.Mesh
	active := 0
	var v [8]float32
	for z := 0; z+1 < g.Nz; z++ {
		for y := 0; y+1 < g.Ny; y++ {
			for x := 0; x+1 < g.Nx; x++ {
				v[0] = g.At(x, y, z)
				v[1] = g.At(x+1, y, z)
				v[2] = g.At(x, y+1, z)
				v[3] = g.At(x+1, y+1, z)
				v[4] = g.At(x, y, z+1)
				v[5] = g.At(x+1, y, z+1)
				v[6] = g.At(x, y+1, z+1)
				v[7] = g.At(x+1, y+1, z+1)
				if cell(&v, geom.V(float32(x), float32(y), float32(z)), iso, &out) {
					active++
				}
			}
		}
	}
	return &out, active
}
