package meshio

// Version 2 chunks: one welded batch of an extraction (a geom.Mesh) each.
// A chunk is
//
//	offset size
//	0      4     vertex count V
//	4      4     triangle count T, ≥ 1: a batch with no triangle has no chunk
//	8      4     layout word: the index width W in bytes in the low byte, 2
//	             when V ≤ 65 536, else 4; bit 8 set for grid form; every
//	             other bit zero — the rules, not choices; a reader holds
//	             both fields to them
//	12     S·V   vertices: S = 8 in grid form, 12 in plain form
//	…      3·T·W indices, three per triangle, each < V
//	…      0–2   zero bytes, so the chunk ends on a 4-byte boundary
//
// A vertex is a grid vertex when it has an axis whose two other coordinates
// are integers in [0, 2¹⁴), compared bit for bit (−0 and NaN never are);
// its axis is the lowest that qualifies. A chunk is in grid form exactly when
// every one of its vertices is a grid vertex, and each then takes 8 bytes:
//
//	0      2     the first of the two integers, the axis in its top two bits
//	2      2     the second integer (its top two bits zero)
//	4      4     the coordinate along the axis, as float32 bits
//
// Every vertex the weld kernel makes lies on a grid edge (march's crossing
// adds a fraction along one axis to an integer grid point), so every chunk
// of a finite surface on a grid under 16 384 samples a side is grid form.
// Plain form is the rest — NaN or ±Inf crossings from float samples, wider
// grids — each vertex X, Y, Z as float32 bits. A reader refuses axis 3, an
// axis a lower one would also qualify for, a second integer ≥ 2¹⁴, and a
// plain chunk whose every vertex is a grid vertex, so each batch has exactly
// one encoding.
//
// Every chunk of a frame, its vertices and its indices start on a 4-byte
// boundary of the frame. Indices, and plain vertices on a little-endian
// host, move as memory (view.go); grid vertices are converted one by one on
// encode and expanded straight into the decoded mesh's vertices on decode.
// At the extraction's ≈ 0.63 vertices per triangle and 16-bit indices a grid
// chunk holds ≈ 11.1 bytes per triangle. A grid vertex expands to 12 bytes
// from 8 and a 16-bit index to 4 bytes from 2, so what a decoder allocates
// for the mesh is at most 2× its input.

import (
	"encoding/binary"
	"math"

	"repro/internal/geom"
)

const (
	chunkHeaderSize = 12
	binVertSize     = 12 // a plain vertex
	gridVertSize    = 8  // a grid vertex
	// narrowVerts is the most vertices a chunk with 16-bit indices can have.
	narrowVerts = 1 << 16
	// gridLimit bounds a grid vertex's integers: 14 bits, the top two of the
	// first one's u16 holding the axis.
	gridLimit = 1 << 14
	// gridLayout is the layout word's grid-form bit; widthMask its index width.
	gridLayout = 1 << 8
	widthMask  = 0xff
)

// indexWidth is the index width, in bytes, of a chunk of verts vertices.
func indexWidth(verts uint64) uint64 {
	if verts <= narrowVerts {
		return 2
	}
	return 4
}

// chunkSize is the bytes a chunk of verts vertices and tris triangles takes
// in the given form, padding included.
func chunkSize(verts, tris uint64, grid bool) uint64 {
	vertSize := uint64(binVertSize)
	if grid {
		vertSize = gridVertSize
	}
	return chunkHeaderSize + vertSize*verts + (3*tris*indexWidth(verts)+3)&^3
}

// gridInt reports whether f is an integer in [0, gridLimit), bit for bit, and
// returns it; −0 and NaN are not.
func gridInt(f float32) (uint32, bool) {
	i := uint32(int32(f))
	return i, i < gridLimit && math.Float32bits(float32(i)) == math.Float32bits(f)
}

// isGrid reports whether every vertex is a grid vertex — two or more of its
// coordinates grid integers — the chunk form rule. Like expandGrid it does
// not branch on which coordinates those are, which follows no order a branch
// predictor learns.
func isGrid(verts []geom.Vec3) bool {
	bad := uint32(0)
	for _, v := range verts {
		_, gx := gridInt(v.X)
		_, gy := gridInt(v.Y)
		_, gz := gridInt(v.Z)
		bad |= b2u(b2u(gx)+b2u(gy)+b2u(gz) < 2)
	}
	return bad == 0
}

// ChunkLen is the bytes im takes as a version 2 chunk: 0 for a mesh with no
// triangle, which is not written. It reads every vertex to decide the form.
func ChunkLen(im *geom.Mesh) int {
	if im.Len() == 0 {
		return 0
	}
	return int(chunkSize(uint64(len(im.Verts)), uint64(im.Len()), isGrid(im.Verts)))
}

// PutChunk encodes im as one chunk into dst, which must be exactly
// ChunkLen(im) long: the caller has sized a buffer for many chunks and owns
// this part of it, so many meshes encode into disjoint parts of one
// allocation at once. The two forms' lengths differ, so dst's length tells
// PutChunk the form ChunkLen chose without a second pass to decide it. Every
// index of im must be below len(im.Verts).
func PutChunk(dst []byte, im *geom.Mesh) {
	if im.Len() == 0 {
		if len(dst) != 0 {
			panic("meshio: PutChunk into a slice that is not the chunk's length")
		}
		return
	}
	verts, idx := im.Verts, im.Idx[:3*im.Len()]
	nv, nt := uint64(len(verts)), uint64(im.Len())
	grid := uint64(len(dst)) == chunkSize(nv, nt, true)
	if !grid && (uint64(len(dst)) != chunkSize(nv, nt, false) || isGrid(verts)) {
		panic("meshio: PutChunk into a slice that is not the chunk's length")
	}
	width := indexWidth(nv)
	layout := uint32(width)
	vertSize := binVertSize
	if grid {
		layout |= gridLayout
		vertSize = gridVertSize
	}
	binary.LittleEndian.PutUint32(dst[0:], uint32(nv))
	binary.LittleEndian.PutUint32(dst[4:], uint32(nt))
	binary.LittleEndian.PutUint32(dst[8:], layout)
	vb := dst[chunkHeaderSize : chunkHeaderSize+vertSize*len(verts)]
	if grid {
		for i, v := range verts {
			if !putGridVert(vb[gridVertSize*i:], v) {
				panic("meshio: PutChunk into a slice that is not the chunk's length")
			}
		}
	} else if b, ok := asBytes(verts); ok {
		copy(vb, b)
	} else {
		for i, v := range verts {
			putVec(vb[binVertSize*i:], v)
		}
	}
	ib := dst[len(vb)+chunkHeaderSize:]
	if width == 4 {
		if b, ok := asBytes(idx); ok {
			copy(ib, b)
		} else {
			for i, x := range idx {
				binary.LittleEndian.PutUint32(ib[4*i:], x)
			}
		}
	} else if narrow, ok := bytesAs[uint16](ib[:2*len(idx)]); ok {
		for i, x := range idx {
			narrow[i] = uint16(x)
		}
	} else {
		for i, x := range idx {
			binary.LittleEndian.PutUint16(ib[2*i:], uint16(x))
		}
	}
	clear(ib[int(width)*len(idx):]) // the padding
}

// putGridVert writes v as a grid vertex into b, reporting false when it is
// not one. It picks the axis and the integers with masks, not branches, for
// the reason isGrid gives.
func putGridVert(b []byte, v geom.Vec3) bool {
	x, gx := gridInt(v.X)
	y, gy := gridInt(v.Y)
	z, gz := gridInt(v.Z)
	on0 := b2u(gy) & b2u(gz)
	on1 := b2u(gx) & b2u(gz) &^ on0
	on2 := b2u(gx) & b2u(gy) &^ on0 // on1 means gy is not an integer
	axis := on1 + 2*on2
	i := x ^ (x^y)&-on0 // y on axis 0, else x
	j := z ^ (z^y)&-on2 // y on axis 2, else z
	c := math.Float32bits(v.X)&-on0 | math.Float32bits(v.Y)&-on1 | math.Float32bits(v.Z)&-on2
	binary.LittleEndian.PutUint32(b[0:], i|axis<<14|j<<16)
	binary.LittleEndian.PutUint32(b[4:], c)
	return on0|on1|on2 != 0
}

// chunk is one parsed chunk: its counts, its form and where its vertices and
// indices lie.
type chunk struct {
	verts, tris, width int
	grid               bool
	vb, ib             []byte
	size               int // bytes the chunk takes, padding included
}

// parseChunk reads the chunk at the start of p, holding it to the layout:
// at least one triangle, the index width the vertex count calls for, no
// layout bit but the width and the form's, every byte within p and zero
// padding. Vertex and index values are the decoder's to check.
func parseChunk(p []byte) (c chunk, err error) {
	if len(p) < chunkHeaderSize {
		return c, binErr("%d bytes left, a chunk header needs %d", len(p), chunkHeaderSize)
	}
	verts := uint64(binary.LittleEndian.Uint32(p[0:]))
	tris := uint64(binary.LittleEndian.Uint32(p[4:]))
	layout := binary.LittleEndian.Uint32(p[8:])
	width, grid := uint64(layout&widthMask), layout&gridLayout != 0
	if tris == 0 {
		return c, binErr("chunk of no triangles")
	}
	if layout&^(widthMask|gridLayout) != 0 {
		return c, binErr("chunk layout word %#x has reserved bits set", layout)
	}
	if want := indexWidth(verts); width != want {
		return c, binErr("chunk of %d vertices declares %d-byte indices, the rule says %d", verts, width, want)
	}
	size := chunkSize(verts, tris, grid)
	if size > uint64(len(p)) {
		return c, binErr("chunk of %d vertices and %d triangles needs %d bytes, %d left", verts, tris, size, len(p))
	}
	vend := size - (3*tris*width+3)&^3
	iend := vend + 3*tris*width
	for _, b := range p[iend:size] {
		if b != 0 {
			return c, binErr("non-zero chunk padding")
		}
	}
	return chunk{verts: int(verts), tris: int(tris), width: int(width), grid: grid,
		vb: p[chunkHeaderSize:vend], ib: p[vend:iend], size: int(size)}, nil
}

// walkChunks holds every chunk of p to the layout and returns the triangles
// and the vertices they hold in all.
func walkChunks(p []byte) (tris, verts int, err error) {
	for len(p) > 0 {
		c, err := parseChunk(p)
		if err != nil {
			return 0, 0, err
		}
		tris += c.tris
		verts += c.verts
		p = p[c.size:]
	}
	return tris, verts, nil
}

// DecodeChunks decodes a sequence of chunks — what PutChunk wrote for each
// batch of one node, back to back — into one mesh of its own: every chunk's
// vertices after the last one's, its indices rebased past them, so the mesh
// expands to the soup the same batches expand to. Malformed chunks, vertices
// off their form's rule and out-of-range indices error with ErrBinaryFormat.
func DecodeChunks(p []byte) (*geom.Mesh, error) {
	tris, verts, err := walkChunks(p)
	if err != nil {
		return nil, err
	}
	return decodeChunks(p, verts, tris)
}

// decodeChunks decodes p, whose chunks walkChunks has accepted and which
// hold verts vertices and tris triangles in all, into one mesh of exactly
// that size, made uncleared: every vertex and index is written below, or
// the mesh is dropped.
func decodeChunks(p []byte, verts, tris int) (*geom.Mesh, error) {
	m := geom.MakeMesh(verts, tris)
	for vat, iat := 0, 0; len(p) > 0; {
		c, err := parseChunk(p)
		if err != nil {
			return nil, err
		}
		vs := m.Verts[vat : vat+c.verts]
		if c.grid {
			if !expandGrid(vs, c.vb) {
				return nil, binErr("grid vertex off the grid rule")
			}
		} else if getVerts(vs, c.vb); isGrid(vs) {
			return nil, binErr("plain chunk of %d grid vertices", c.verts)
		}
		if !rebase(m.Idx[iat:iat+3*c.tris], c, uint32(vat)) {
			return nil, binErr("chunk index out of range of its %d vertices", c.verts)
		}
		vat, iat = vat+c.verts, iat+3*c.tris
		p = p[c.size:]
	}
	return m, nil
}

// gridPerm[axis] names, for X, Y and Z, the slot of a grid vertex's parts —
// 0 its crossing coordinate, 1 and 2 its integers — each coordinate comes
// from. Row 3 answers the axis no vertex has, which expandGrid refuses.
var gridPerm = [4][3]uint8{{0, 1, 2}, {1, 0, 2}, {1, 2, 0}, {0, 1, 2}}

// kernelBlock is the most vertices or indices one call of a vector kernel
// writes: the scheduler cannot preempt assembly, so a goroutine decoding a
// huge chunk returns to Go between blocks. It is a multiple of eight, so
// every block after a chunk's first starts where the last one's aligned
// stores ended.
const kernelBlock = 1 << 16

// expandGrid expands a grid chunk's vertices vb into verts and reports
// whether every one of them is the rule's: an axis below 3 and the lowest
// that qualifies, a second integer below gridLimit. Where the host has AVX2,
// expandGridAVX2 writes every vertex from verts' first 32-byte boundary on,
// eight at a time, with streaming stores: verts is a mesh MakeMesh has just
// allocated, none of its lines is in cache, and a plain store would read
// each one only to overwrite it. The head before that boundary, the tail
// and every vertex on any other host go through expandGridLoop.
func expandGrid(verts []geom.Vec3, vb []byte) bool {
	vb = vb[:gridVertSize*len(verts)]
	bad := uint32(0)
	for gridAVX2 && len(verts) >= 8 {
		lo, hi, b := expandGridAVX2(&verts[0], &vb[0], min(len(verts), kernelBlock))
		bad |= b | expandGridLoop(verts[:lo], vb)
		verts, vb = verts[hi:], vb[gridVertSize*hi:]
	}
	return bad|expandGridLoop(verts, vb) == 0
}

// expandGridLoop is expandGrid in Go, the portable path and the kernel's
// oracle: it returns non-zero when a vertex is off the rule. It does not
// branch on a vertex's bytes — the axis selects a row of gridPerm and every
// check folds into one word — because the axes of an extraction's vertices
// follow each other in no order a branch predictor could learn.
func expandGridLoop(verts []geom.Vec3, vb []byte) (bad uint32) {
	for i := range verts {
		ij := binary.LittleEndian.Uint32(vb[gridVertSize*i:])
		cb := binary.LittleEndian.Uint32(vb[gridVertSize*i+4:])
		axis := ij >> 14 & 3
		c := math.Float32frombits(cb)
		part := [4]float32{c, float32(ij & (gridLimit - 1)), float32(ij >> 16)}
		p := &gridPerm[axis]
		verts[i] = geom.Vec3{X: part[p[0]&3], Y: part[p[1]&3], Z: part[p[2]&3]}
		// The crossing an axis above 0 carries must not be a grid integer:
		// then a lower axis would qualify.
		ci := uint32(int32(c))
		crossInt := b2u(ci < gridLimit) & b2u(math.Float32bits(float32(ci)) == cb)
		bad |= axis>>1&axis | ij>>30 | b2u(axis != 0)&crossInt
	}
	return bad
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// rebase copies a chunk's indices into idx, each plus base, the chunk's
// first vertex in the mesh, and reports false for an index outside the
// chunk's vertices: one compare of the largest index read. Where the host
// has AVX2, rebaseAVX2 writes every index from idx's first 32-byte boundary
// on with streaming stores, for the reason expandGrid gives, reading the
// frame's bytes at any alignment; the head before that boundary, the tail
// and every index on any other host go through rebaseLoop.
func rebase(idx []uint32, c chunk, base uint32) bool {
	ib, top := c.ib[:c.width*len(idx)], uint32(0)
	for gridAVX2 && len(idx) >= 8 {
		lo, hi, t := rebaseAVX2(&idx[0], &ib[0], min(len(idx), kernelBlock), c.width, base)
		top = max(top, t, rebaseLoop(idx[:lo], ib, c.width, base))
		idx, ib = idx[hi:], ib[c.width*hi:]
	}
	return uint64(max(top, rebaseLoop(idx, ib, c.width, base))) < uint64(c.verts)
}

// rebaseLoop is rebase's portable path through geom.Rebase, returning the
// largest index. It reads the indices straight from the frame's bytes where
// the host layout and the alignment allow; otherwise it decodes them into
// idx one by one first and rebases them there.
func rebaseLoop(idx []uint32, ib []byte, width int, base uint32) uint32 {
	ib = ib[:width*len(idx)]
	if width == 2 {
		if src, ok := bytesAs[uint16](ib); ok {
			return geom.Rebase(idx, src, base)
		}
		for i := range idx {
			idx[i] = uint32(binary.LittleEndian.Uint16(ib[2*i:]))
		}
	} else {
		if src, ok := bytesAs[uint32](ib); ok {
			return geom.Rebase(idx, src, base)
		}
		for i := range idx {
			idx[i] = binary.LittleEndian.Uint32(ib[4*i:])
		}
	}
	return geom.Rebase(idx, idx, base)
}
