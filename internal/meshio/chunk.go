package meshio

// Version 2 chunks: one welded batch of an extraction (geom.IndexedMesh) each.
// A chunk is
//
//	offset size
//	0      4     vertex count V
//	4      4     triangle count T, ≥ 1: a batch with no triangle has no chunk
//	8      4     index width W in bytes: 2 when V ≤ 65 536, else 4 — the
//	             rule, not a choice; a reader holds the field to it
//	12     12·V  vertices, X,Y,Z as float32 bits
//	…      3·T·W indices, three per triangle, each < V
//	…      0–2   zero bytes, so the chunk ends on a 4-byte boundary
//
// so every chunk of a frame, its vertices and its indices start on a 4-byte
// boundary of the frame, and on a little-endian host both move as memory
// (view.go). At the extraction's ≈ 0.63 vertices per triangle and 16-bit
// indices a chunk holds ≈ 13.6 bytes per triangle. Every chunk holds at
// least 6 bytes per triangle, which bounds what a decoder allocates for the
// soup at 6× its input.

import (
	"encoding/binary"

	"repro/internal/geom"
)

const (
	chunkHeaderSize = 12
	binVertSize     = 12
	// narrowVerts is the most vertices a chunk with 16-bit indices can have.
	narrowVerts = 1 << 16
)

// indexWidth is the index width, in bytes, of a chunk of verts vertices.
func indexWidth(verts uint64) uint64 {
	if verts <= narrowVerts {
		return 2
	}
	return 4
}

// chunkSize is the bytes a chunk of verts vertices and tris triangles takes,
// padding included.
func chunkSize(verts, tris uint64) uint64 {
	return chunkHeaderSize + binVertSize*verts + (3*tris*indexWidth(verts)+3)&^3
}

// ChunkLen is the bytes im takes as a version 2 chunk: 0 for a mesh with no
// triangle, which is not written.
func ChunkLen(im *geom.IndexedMesh) int {
	if im.Len() == 0 {
		return 0
	}
	return int(chunkSize(uint64(len(im.Verts)), uint64(im.Len())))
}

// PutChunk encodes im as one chunk into dst, which must be exactly
// ChunkLen(im) long: the caller has sized a buffer for many chunks and owns
// this part of it, so many meshes encode into disjoint parts of one
// allocation at once. Every index of im must be below len(im.Verts).
func PutChunk(dst []byte, im *geom.IndexedMesh) {
	if len(dst) != ChunkLen(im) {
		panic("meshio: PutChunk into a slice that is not the chunk's length")
	}
	if len(dst) == 0 {
		return
	}
	verts, idx := im.Verts, im.Idx[:3*im.Len()]
	width := indexWidth(uint64(len(verts)))
	binary.LittleEndian.PutUint32(dst[0:], uint32(len(verts)))
	binary.LittleEndian.PutUint32(dst[4:], uint32(im.Len()))
	binary.LittleEndian.PutUint32(dst[8:], uint32(width))
	vb := dst[chunkHeaderSize : chunkHeaderSize+binVertSize*len(verts)]
	if b, ok := asBytes(verts); ok {
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

// chunk is one parsed chunk: its counts and where its vertices and indices lie.
type chunk struct {
	verts, tris, width int
	vb, ib             []byte
	size               int // bytes the chunk takes, padding included
}

// parseChunk reads the chunk at the start of p, holding it to the layout:
// at least one triangle, the index width the vertex count calls for, every
// byte within p and zero padding. Index values are the gather's to check.
func parseChunk(p []byte) (c chunk, err error) {
	if len(p) < chunkHeaderSize {
		return c, binErr("%d bytes left, a chunk header needs %d", len(p), chunkHeaderSize)
	}
	verts := uint64(binary.LittleEndian.Uint32(p[0:]))
	tris := uint64(binary.LittleEndian.Uint32(p[4:]))
	width := uint64(binary.LittleEndian.Uint32(p[8:]))
	if tris == 0 {
		return c, binErr("chunk of no triangles")
	}
	if want := indexWidth(verts); width != want {
		return c, binErr("chunk of %d vertices declares %d-byte indices, the rule says %d", verts, width, want)
	}
	size := chunkSize(verts, tris)
	if size > uint64(len(p)) {
		return c, binErr("chunk of %d vertices and %d triangles needs %d bytes, %d left", verts, tris, size, len(p))
	}
	vend := chunkHeaderSize + binVertSize*verts
	iend := vend + 3*tris*width
	for _, b := range p[iend:size] {
		if b != 0 {
			return c, binErr("non-zero chunk padding")
		}
	}
	return chunk{verts: int(verts), tris: int(tris), width: int(width),
		vb: p[chunkHeaderSize:vend], ib: p[vend:iend], size: int(size)}, nil
}

// walkChunks holds every chunk of p to the layout and returns the triangles
// they hold.
func walkChunks(p []byte) (tris int, err error) {
	for len(p) > 0 {
		c, err := parseChunk(p)
		if err != nil {
			return 0, err
		}
		tris += c.tris
		p = p[c.size:]
	}
	return tris, nil
}

// DecodeChunks gathers a sequence of chunks — what PutChunk wrote for each
// batch of one node, back to back — into a soup of its own, the triangles of
// every chunk in order: the soup the same batches expand to. Malformed chunks
// and out-of-range indices error with ErrBinaryFormat.
func DecodeChunks(p []byte) (*geom.Mesh, error) {
	tris, err := walkChunks(p)
	if err != nil {
		return nil, err
	}
	out, err := gatherChunks(p, tris)
	if err != nil {
		return nil, err
	}
	return &geom.Mesh{Tris: out}, nil
}

// gatherChunks expands p, whose chunks walkChunks has accepted and which
// hold tris triangles, into one soup.
func gatherChunks(p []byte, tris int) ([]geom.Triangle, error) {
	if tris == 0 {
		return nil, nil
	}
	out := make([]geom.Triangle, tris)
	for at := 0; len(p) > 0; {
		c, err := parseChunk(p)
		if err != nil {
			return nil, err
		}
		if !gatherChunk(out[at:at+c.tris], c) {
			return nil, binErr("chunk index out of range of its %d vertices", c.verts)
		}
		at += c.tris
		p = p[c.size:]
	}
	return out, nil
}

// gatherChunk expands one chunk into out, straight from the frame's bytes
// where the host layout and the alignment allow, through a decoded copy
// otherwise. It reports false for an index outside the chunk's vertices.
func gatherChunk(out []geom.Triangle, c chunk) bool {
	verts, ok := bytesAs[geom.Vec3](c.vb)
	if !ok {
		verts = make([]geom.Vec3, c.verts)
		for i := range verts {
			verts[i] = getVec(c.vb[binVertSize*i:])
		}
	}
	if c.width == 2 {
		idx, ok := bytesAs[uint16](c.ib)
		if !ok {
			idx = make([]uint16, len(c.ib)/2)
			for i := range idx {
				idx[i] = binary.LittleEndian.Uint16(c.ib[2*i:])
			}
		}
		return gatherIdx(out, verts, idx)
	}
	idx, ok := bytesAs[uint32](c.ib)
	if !ok {
		idx = make([]uint32, len(c.ib)/4)
		for i := range idx {
			idx[i] = binary.LittleEndian.Uint32(c.ib[4*i:])
		}
	}
	return gatherIdx(out, verts, idx)
}

// gatherIdx is geom.(*IndexedMesh).Gather for either index width, checking
// every index against the vertices first: the bytes may be hostile.
func gatherIdx[I uint16 | uint32](out []geom.Triangle, verts []geom.Vec3, idx []I) bool {
	idx = idx[:3*len(out)]
	n := uint32(len(verts)) // a chunk's vertex count is a uint32
	for i := range out {
		a, b, c := uint32(idx[3*i]), uint32(idx[3*i+1]), uint32(idx[3*i+2])
		if a >= n || b >= n || c >= n {
			return false
		}
		// Corner by corner through a pointer, as geom's Gather does.
		t := &out[i]
		t.A = verts[a]
		t.B = verts[b]
		t.C = verts[c]
	}
	return true
}
