package march

import (
	"encoding/binary"
	"math"
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

// sample is a metacell scalar in the type its record stores it as.
type sample interface{ uint8 | uint16 | float32 }

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
// The passes are generic over the sample type and read the samples where
// they lie: a one-byte record's own bytes, a copy in the Welder's scratch of
// a wider format's. Samples are classified in their own domain (for integer
// samples s >= iso is s >= ceil(iso)), and one becomes a float32 only as an
// end of a cut edge.
//
// Each crossing is interpolated once per metacell instead of once per
// incident cell (up to 4× for an edge shared by four cells), and because the
// interpolation reads the same two samples with the same arithmetic,
// ExpandSoup of the result is byte-identical to the soup baseline — every
// cell triangulated on its own, as Grid does, the tests' oracle. Triangles
// come out in the soup's order; vertices in the vertex pass's.
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
	// triOff[cfg] is configuration cfg's triangle-table row with each cube
	// edge replaced by where that edge's entry sits in the edge table,
	// relative to the x-edge entry of the cell's corner 0.
	triOff [256][16]int32
	// The samples of the record being welded, in the formats whose records
	// do not hold them as a slice the passes can index.
	u16 []uint16
	f32 []float32
}

// RetainedBytes is the heap a welder holds on to between records: its row
// masks, edge table, offset table and, for the wider formats, sample copy.
func (w *Welder) RetainedBytes() int {
	return 8*cap(w.masks) + 4*cap(w.edge) + 4*len(w.triOff)*len(w.triOff[0]) + 2*cap(w.u16) + 4*cap(w.f32)
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
	var edgeOff [12]int32
	for e, c := range edgeCorners {
		edgeOff[e] = int32(3*sampleOffset(span, c[0]) + e/4) // edges 0..3 run along x, 4..7 along y, 8..11 along z
	}
	for cfg := range w.triOff {
		for k, e := range triTable[cfg] {
			w.triOff[cfg][k] = edgeOff[e]
		}
	}
}

// extent is how many cells of a metacell lie inside the volume along each
// axis; samples 0..cx × 0..cy × 0..cz are their corners.
type extent struct{ cx, cy, cz int }

// Metacell triangulates every cell of a decoded metacell, welding vertices
// into out (an indexed mesh that may already hold earlier metacells'
// geometry). It returns the number of active cells — the same count, and in
// ExpandSoup form the same bytes, as the soup baseline.
func (w *Welder) Metacell(l metacell.Layout, m *metacell.Meta, iso float32, out *geom.IndexedMesh) int {
	return weld(w, l, m.ID, m.Samples, iso, iso, out)
}

// Record is Metacell for a metacell still in its encoded record: the passes
// read a one-byte format's samples from rec itself and a wider format's from
// a copy in their own type, never from a decoded float32 block. A record
// that does not belong to the layout is metacell.DecodeRecordInto's error,
// and out is untouched.
func (w *Welder) Record(l metacell.Layout, rec []byte, iso float32, out *geom.IndexedMesh) (int, error) {
	id, err := metacell.CheckRecord(l, rec)
	if err != nil {
		return 0, err
	}
	n := l.Span * l.Span * l.Span
	body := rec[4+l.Fmt.Bytes():]
	switch l.Fmt {
	case volume.U8:
		thr, cut := intThreshold(iso, math.MaxUint8)
		if !cut {
			return 0, nil
		}
		return weld(w, l, id, body, uint8(thr), iso, out), nil
	case volume.U16:
		thr, cut := intThreshold(iso, math.MaxUint16)
		if !cut {
			return 0, nil
		}
		if len(w.u16) != n {
			w.u16 = make([]uint16, n)
		}
		for i := range w.u16 {
			w.u16[i] = binary.LittleEndian.Uint16(body[2*i:])
		}
		return weld(w, l, id, w.u16, uint16(thr), iso, out), nil
	default:
		if len(w.f32) != n {
			w.f32 = make([]float32, n)
		}
		for i := range w.f32 {
			w.f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		}
		return weld(w, l, id, w.f32, iso, iso, out), nil
	}
}

// intThreshold returns the integer thr for which s >= thr exactly when
// float32(s) >= iso, over integer samples s in 0..top. There is none, and so
// no active cell, when every sample is inside (iso at or below zero) or none
// is (iso above top, or NaN): cut is false.
func intThreshold(iso float32, top int) (thr int, cut bool) {
	if !(iso > 0 && iso <= float32(top)) {
		return 0, false
	}
	return int(math.Ceil(float64(iso))), true
}

// weld runs the passes over one metacell's samples. thr is the isovalue in
// the samples' domain, which classifies them; iso is where crossings are
// interpolated.
func weld[T sample](w *Welder, l metacell.Layout, id uint32, samples []T, thr T, iso float32, out *geom.IndexedMesh) int {
	ox, oy, oz := l.Origin(id)
	// Truncated at the volume boundary exactly as the soup baseline's break
	// conditions do.
	ext := extent{min(l.Span-1, l.Nx-1-ox), min(l.Span-1, l.Ny-1-oy), min(l.Span-1, l.Nz-1-oz)}
	if ext.cx <= 0 || ext.cy <= 0 || ext.cz <= 0 {
		return 0
	}
	origin := [3]int{ox, oy, oz}
	w.resize(l.Span)
	if l.Span > maskSpan {
		return weldWide(w, samples, thr, iso, ext, origin, out)
	}
	classify(w, samples, thr, ext)
	vertices(w, samples, iso, ext, origin, out)
	return w.triangles(ext, out)
}

// classify is pass 1: every sample row of the extent becomes an inside mask.
func classify[T sample](w *Welder, samples []T, thr T, ext extent) {
	span, n := w.span, ext.cx+1
	// One-byte samples are compared eight to a word; what a row has past its
	// last whole word goes one at a time, as every other type's samples do.
	bytes, _ := any(samples).([]uint8)
	thr8, _ := any(thr).(uint8)
	thrWord := uint64(thr8) * (^uint64(0) / 0xff)
	words := 0 // whole words in a row
	if bytes != nil {
		words = n / 8
	}
	for z := 0; z <= ext.cz; z++ {
		for y := 0; y <= ext.cy; y++ {
			r := z*span + y
			row := samples[r*span : r*span+n]
			// Last sample first, so that each bit arrives by a constant shift.
			var mask uint64
			for x := n - 1; x >= 8*words; x-- {
				var in uint64
				if row[x] >= thr {
					in = 1
				}
				mask = mask<<1 | in
			}
			for x := 8 * (words - 1); x >= 0; x -= 8 {
				mask = mask<<8 | geMask8(binary.LittleEndian.Uint64(bytes[r*span+x:]), thrWord)
			}
			w.masks[r] = mask
		}
	}
}

// geMask8 compares the eight bytes of x with those of t as unsigned numbers:
// bit i of the result is set when byte i of x >= byte i of t.
func geMask8(x, t uint64) uint64 {
	const top = 0x8080808080808080
	// Low seven bits: with x's top bit forced on and t's off, no byte's
	// subtraction borrows from the next, and a byte keeps its top bit exactly
	// when x's low bits are at least t's. The top bits then decide, or tie.
	low := (x | top) - (t &^ top)
	ge := (x&^t | ^(x^t)&low) & top
	return (ge >> 7) * 0x0102040810204080 >> 56 // gathers bit 8i into bit 56+i
}

// crossing returns the point at which the isosurface cuts the grid edge that
// runs from the sample at p, of value va, one step along axis a to a sample
// of value vb. The soup baseline, for the cell that has p as corner 0, adds
// t times the edge's unit vector to p: t along the edge's own axis and t·0
// along the other two, which changes nothing unless t is not finite (float
// samples or isovalues can make it so) and t·0 a NaN. Every other cell around
// the edge computes the same bits.
func crossing(p geom.Vec3, a int, va, vb, iso float32) geom.Vec3 {
	t := (iso - va) / (vb - va) // va != vb: exactly one side is inside
	o := t * 0
	switch a {
	case 0:
		return geom.Vec3{X: p.X + t, Y: p.Y + o, Z: p.Z + o}
	case 1:
		return geom.Vec3{X: p.X + o, Y: p.Y + t, Z: p.Z + o}
	}
	return geom.Vec3{X: p.X + o, Y: p.Y + o, Z: p.Z + t}
}

// vertices is pass 2: one vertex per cut grid edge of the extent, appended to
// out and entered in the edge table. Two samples on opposite sides of the
// isovalue differ in their mask bit, so the cut edges leaving a sample row
// are the set bits of an xor.
func vertices[T sample](w *Welder, samples []T, iso float32, ext extent, origin [3]int, out *geom.IndexedMesh) {
	span, masks, edge := w.span, w.masks, w.edge
	xBits := uint64(1)<<ext.cx - 1 // samples 0..cx-1: an x-edge leaves each
	sBits := xBits<<1 | 1          // samples 0..cx, all 64 bits at cx = 63
	verts := out.Verts
	for z := 0; z <= ext.cz; z++ {
		for y := 0; y <= ext.cy; y++ {
			r := z*span + y
			cutX := (masks[r] ^ masks[r]>>1) & xBits
			var cutY, cutZ uint64
			if y < ext.cy {
				cutY = (masks[r] ^ masks[r+1]) & sBits
			}
			if z < ext.cz {
				cutZ = (masks[r] ^ masks[r+span]) & sBits
			}
			n := bits.OnesCount64(cutX) + bits.OnesCount64(cutY) + bits.OnesCount64(cutZ)
			if n == 0 {
				continue
			}
			// Room for the row's vertices once, then stores by index. The axis
			// is a constant of each loop, and so of the crossing inlined in it.
			nv := len(verts)
			verts = slices.Grow(verts, n)[:nv+n]
			p := geom.V(0, float32(origin[1]+y), float32(origin[2]+z))
			for c := cutX; c != 0; c &= c - 1 {
				x := bits.TrailingZeros64(c)
				i := r*span + x
				p.X = float32(origin[0] + x)
				verts[nv] = crossing(p, 0, float32(samples[i]), float32(samples[i+1]), iso)
				edge[3*i] = uint32(nv)
				nv++
			}
			for c := cutY; c != 0; c &= c - 1 {
				x := bits.TrailingZeros64(c)
				i := r*span + x
				p.X = float32(origin[0] + x)
				verts[nv] = crossing(p, 1, float32(samples[i]), float32(samples[i+span]), iso)
				edge[3*i+1] = uint32(nv)
				nv++
			}
			for c := cutZ; c != 0; c &= c - 1 {
				x := bits.TrailingZeros64(c)
				i := r*span + x
				p.X = float32(origin[0] + x)
				verts[nv] = crossing(p, 2, float32(samples[i]), float32(samples[i+span*span]), iso)
				edge[3*i+2] = uint32(nv)
				nv++
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
			slots := edge[3*r*span:]
			for ; act != 0; act &= act - 1 {
				x := bits.TrailingZeros64(act)
				cfg := uint8(m00>>x&3) | uint8(m10>>x&3)<<2 | uint8(m01>>x&3)<<4 | uint8(m11>>x&3)<<6
				ni += w.emit(idx[ni:], slots[3*x:], cfg)
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
	off := &w.triOff[cfg]
	n := 3 * int(triCount[cfg])
	for k := 0; k < n; k += 3 {
		dst[k], dst[k+1], dst[k+2] = slots[off[k]], slots[off[k+1]], slots[off[k+2]]
	}
	return n
}

// weldWide is the passes for spans whose sample rows do not fit one mask
// word: the same edge table, with every sample and every cell classified by
// comparing, as the soup baseline does.
func weldWide[T sample](w *Welder, samples []T, thr T, iso float32, ext extent, origin [3]int, out *geom.IndexedMesh) int {
	span := w.span
	step := [3]int{1, span, span * span}
	last := [3]int{ext.cx, ext.cy, ext.cz}
	for z := 0; z <= ext.cz; z++ {
		for y := 0; y <= ext.cy; y++ {
			for x := 0; x <= ext.cx; x++ {
				i := (z*span+y)*span + x
				p := geom.V(float32(origin[0]+x), float32(origin[1]+y), float32(origin[2]+z))
				for a, at := range [3]int{x, y, z} {
					if at < last[a] && (samples[i] >= thr) != (samples[i+step[a]] >= thr) {
						w.edge[3*i+a] = uint32(len(out.Verts))
						out.Verts = append(out.Verts, crossing(p, a, float32(samples[i]), float32(samples[i+step[a]]), iso))
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
				var cfg uint8
				for c := 0; c < 8; c++ {
					if samples[i+sampleOffset(span, c)] >= thr {
						cfg |= 1 << c
					}
				}
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
