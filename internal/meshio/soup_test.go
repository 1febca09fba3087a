package meshio

import (
	"encoding/binary"
	"math"

	"repro/internal/geom"
)

// soupDecode is the decoder as it stood while a decoded mesh was a triangle
// soup, kept as the oracle the mesh decoders are held to (FuzzDecodeBinary):
// the frame checked as the decoders check it, then a version 1 payload read
// component by component, and a version 2 frame's chunks gathered into one
// soup of exactly T triangles, each chunk's vertices expanded into a scratch
// of its own first. It refuses exactly what the mesh decoders must refuse.
func soupDecode(data []byte, verified bool) ([]geom.Triangle, float32, error) {
	h, err := verifiedHeader(data, verified)
	if err != nil {
		return nil, 0, err
	}
	if h.version == BinaryVersion {
		tris := make([]geom.Triangle, h.tris)
		getTris(tris, h.payload)
		return tris, h.iso, nil
	}
	tris, err := gatherChunks(h.payload, h.tris)
	if err != nil {
		return nil, 0, err
	}
	return tris, h.iso, nil
}

// gatherChunks expands p, whose chunks walkChunks has accepted and which
// hold tris triangles, into one soup through geom.Gather, reading the
// indices straight from the frame's bytes where the host layout and the
// alignment allow.
func gatherChunks(p []byte, tris int) ([]geom.Triangle, error) {
	out := make([]geom.Triangle, tris)
	for at := 0; len(p) > 0; {
		c, err := parseChunk(p)
		if err != nil {
			return nil, err
		}
		verts := make([]geom.Vec3, c.verts)
		if c.grid {
			if !expandGrid(verts, c.vb) {
				return nil, binErr("grid vertex off the grid rule")
			}
		} else {
			getVerts(verts, c.vb)
			if isGrid(verts) {
				return nil, binErr("plain chunk of %d grid vertices", c.verts)
			}
		}
		if !gatherChunk(out[at:at+c.tris], verts, c) {
			return nil, binErr("chunk index out of range of its %d vertices", c.verts)
		}
		at += c.tris
		p = p[c.size:]
	}
	return out, nil
}

// gatherChunk expands one chunk's triangles into out from its vertices with
// geom.Gather, reporting false for an index outside them.
func gatherChunk(out []geom.Triangle, verts []geom.Vec3, c chunk) bool {
	if c.width == 2 {
		idx, ok := bytesAs[uint16](c.ib)
		if !ok {
			idx = make([]uint16, len(c.ib)/2)
			for i := range idx {
				idx[i] = binary.LittleEndian.Uint16(c.ib[2*i:])
			}
		}
		return geom.Gather(out, verts, idx)
	}
	idx, ok := bytesAs[uint32](c.ib)
	if !ok {
		idx = make([]uint32, len(c.ib)/4)
		for i := range idx {
			idx[i] = binary.LittleEndian.Uint32(c.ib[4*i:])
		}
	}
	return geom.Gather(out, verts, idx)
}

// getTris fills tris from a version 1 payload one component at a time.
func getTris(tris []geom.Triangle, payload []byte) {
	for i := range tris {
		rec := payload[i*binTriSize:]
		tris[i] = geom.Triangle{A: getVec(rec[0:]), B: getVec(rec[12:]), C: getVec(rec[24:])}
	}
}

// trisBytes is a soup's version 1 payload, one component at a time.
func trisBytes(tris []geom.Triangle) []byte {
	b := make([]byte, binTriSize*len(tris))
	for i, t := range tris {
		putVec(b[binTriSize*i:], t.A)
		putVec(b[binTriSize*i+12:], t.B)
		putVec(b[binTriSize*i+24:], t.C)
	}
	return b
}

// soupBytes is the version 1 payload of the soup m expands to — how the
// byte-identity tests compare meshes — or nil when an index lies past the
// vertices, as a never-written index of a poisoned mesh does.
func soupBytes(m *geom.Mesh) []byte {
	tris := make([]geom.Triangle, m.Len())
	if !geom.Gather(tris, m.Verts, m.Idx) {
		return nil
	}
	return trisBytes(tris)
}

// triMesh is a mesh of the given triangles, three vertices apiece.
func triMesh(ts ...geom.Triangle) *geom.Mesh {
	m := &geom.Mesh{}
	m.Append(ts...)
	return m
}

// sameMesh reports whether two meshes hold the same arrays, vertex bits and
// indices alike.
func sameMesh(a, b *geom.Mesh) bool {
	if len(a.Verts) != len(b.Verts) || len(a.Idx) != len(b.Idx) {
		return false
	}
	for i, v := range a.Verts {
		w := b.Verts[i]
		if math.Float32bits(v.X) != math.Float32bits(w.X) || math.Float32bits(v.Y) != math.Float32bits(w.Y) || math.Float32bits(v.Z) != math.Float32bits(w.Z) {
			return false
		}
	}
	for i, x := range a.Idx {
		if b.Idx[i] != x {
			return false
		}
	}
	return true
}
