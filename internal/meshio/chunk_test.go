package meshio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// testBatch is a welded batch of tris triangles over verts vertices, every
// vertex distinct and the indices spread over all of them, deterministic in
// seed.
func testBatch(tris, verts int, seed uint32) *geom.IndexedMesh {
	im := &geom.IndexedMesh{Verts: make([]geom.Vec3, verts), Idx: make([]uint32, 3*tris)}
	for i := range im.Verts {
		f := float32(seed) + float32(i)*0.25
		im.Verts[i] = geom.V(f, -f, f*f)
	}
	x := seed*2654435761 + 1
	for i := range im.Idx {
		x = x*1664525 + 1013904223
		im.Idx[i] = x % uint32(verts)
	}
	return im
}

// chunkBuf is what the engine keeps for one node: every batch's chunk, back
// to back, in one exact-size buffer.
func chunkBuf(batches ...*geom.IndexedMesh) []byte {
	n := 0
	for _, im := range batches {
		n += ChunkLen(im)
	}
	buf := make([]byte, n)
	at := 0
	for _, im := range batches {
		PutChunk(buf[at:at+ChunkLen(im)], im)
		at += ChunkLen(im)
	}
	return buf
}

// sealed is the bytes Seal writes for the nodes' chunk buffers.
func sealed(iso float32, nodes ...[]byte) []byte {
	var buf bytes.Buffer
	Seal(iso, nodes...).WriteTo(&buf) //nolint:errcheck // bytes.Buffer
	return buf.Bytes()
}

// portableChunked encodes batches as a version 2 frame component by
// component, straight from the layout comment in chunk.go, with no view and
// no helper of the codec's but the fixed header: the oracle Seal and
// PutChunk are held to.
func portableChunked(iso float32, flags uint16, batches ...*geom.IndexedMesh) []byte {
	le := binary.LittleEndian
	var payload []byte
	tris := 0
	for _, im := range batches {
		if im.Len() == 0 {
			continue
		}
		tris += im.Len()
		width := 2
		if len(im.Verts) > 65536 {
			width = 4
		}
		payload = le.AppendUint32(payload, uint32(len(im.Verts)))
		payload = le.AppendUint32(payload, uint32(im.Len()))
		payload = le.AppendUint32(payload, uint32(width))
		for _, v := range im.Verts {
			var rec [12]byte
			putVec(rec[:], v)
			payload = append(payload, rec[:]...)
		}
		for _, x := range im.Idx[:3*im.Len()] {
			if width == 2 {
				payload = le.AppendUint16(payload, uint16(x))
			} else {
				payload = le.AppendUint32(payload, x)
			}
		}
		for len(payload)%4 != 0 {
			payload = append(payload, 0)
		}
	}
	hdr := frameHeader(ChunkedVersion, iso, flags, tris, len(payload))
	out := append(hdr[:], payload...)
	if flags&FlagChecksum != 0 {
		out = le.AppendUint32(out, crc32.Checksum(out[binPrefixSize:], crcTable))
	}
	return out
}

// parseBatches is the oracle's reader: the batches a version 2 payload holds,
// read component by component. It trusts parseChunk for the structure only.
func parseBatches(t *testing.T, payload []byte) []*geom.IndexedMesh {
	t.Helper()
	var out []*geom.IndexedMesh
	for len(payload) > 0 {
		c, err := parseChunk(payload)
		if err != nil {
			t.Fatalf("accepted payload does not parse: %v", err)
		}
		im := &geom.IndexedMesh{Verts: make([]geom.Vec3, c.verts), Idx: make([]uint32, 3*c.tris)}
		for i := range im.Verts {
			im.Verts[i] = getVec(c.vb[12*i:])
		}
		for i := range im.Idx {
			if c.width == 2 {
				im.Idx[i] = uint32(binary.LittleEndian.Uint16(c.ib[2*i:]))
			} else {
				im.Idx[i] = binary.LittleEndian.Uint32(c.ib[4*i:])
			}
		}
		out = append(out, im)
		payload = payload[c.size:]
	}
	return out
}

// expandAll is the version 1 soup of the batches: each one's ExpandSoup,
// concatenated.
func expandAll(batches ...*geom.IndexedMesh) *geom.Mesh {
	out := &geom.Mesh{}
	for _, im := range batches {
		out.Append(im.ExpandSoup().Tris...)
	}
	return out
}

// batchCases are the node layouts the v2 tests run over: each case is a list
// of nodes, each node a list of batches.
var batchCases = []struct {
	name  string
	nodes [][]*geom.IndexedMesh
}{
	{"no nodes", nil},
	{"one empty node", [][]*geom.IndexedMesh{{}}},
	{"empty batches only", [][]*geom.IndexedMesh{{{}, {}}}},
	{"one batch, odd triangle count", [][]*geom.IndexedMesh{{testBatch(7, 9, 1)}}},
	{"one batch, even triangle count", [][]*geom.IndexedMesh{{testBatch(8, 5, 2)}}},
	{"exactly 65536 vertices: 16-bit", [][]*geom.IndexedMesh{{testBatch(5, 65536, 3)}}},
	{"65537 vertices: 32-bit", [][]*geom.IndexedMesh{{testBatch(3, 65537, 4)}}},
	{"nodes of several batches, empties between", [][]*geom.IndexedMesh{
		{testBatch(3, 4, 5), {}, testBatch(11, 20, 6)},
		{},
		{{}, testBatch(1, 3, 7), testBatch(4099, 2600, 8)},
	}},
}

// sealCase seals one case's nodes and returns the frame, the oracle frame
// and the batches in wire order.
func sealCase(nodes [][]*geom.IndexedMesh) (frame, oracle []byte, batches []*geom.IndexedMesh) {
	bufs := make([][]byte, len(nodes))
	for i, node := range nodes {
		bufs[i] = chunkBuf(node...)
		batches = append(batches, node...)
	}
	return sealed(110.5, bufs...), portableChunked(110.5, FlagChecksum, batches...), batches
}

// TestSealedFrameBytesEqualPortableEncoding: what a sealed frame writes is
// the layout comment's encoding, byte for byte — both index widths, nodes
// and batches with nothing in them, chunks of odd and even triangle counts —
// and its length, verification and header agree.
func TestSealedFrameBytesEqualPortableEncoding(t *testing.T) {
	for _, tc := range batchCases {
		got, want, batches := sealCase(tc.nodes)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sealed frame's %d bytes differ from the portable encoding's %d", tc.name, len(got), len(want))
		}
		bufs := make([][]byte, len(tc.nodes))
		for i, node := range tc.nodes {
			bufs[i] = chunkBuf(node...)
		}
		f := Seal(110.5, bufs...)
		if f.Len() != len(want) {
			t.Errorf("%s: Len() = %d, frame is %d bytes", tc.name, f.Len(), len(want))
		}
		if err := VerifyBinary(got); err != nil {
			t.Errorf("%s: sealed frame fails verification: %v", tc.name, err)
		}
		iso, tris, err := DecodeBinaryHeader(got)
		if err != nil || iso != 110.5 || tris != expandAll(batches...).Len() {
			t.Errorf("%s: header (%v, %d, %v)", tc.name, iso, tris, err)
		}
		if !IsChunked(got) {
			t.Errorf("%s: sealed frame is not version 2", tc.name)
		}
	}
}

// TestChunkedDecodeMatchesSoup is the differential behind "soup only in the
// caller's hands": decoding a version 2 frame — DecodeBinary, DecodeBinaryView
// verified or not, DecodeChunks node by node — yields bit for bit the version
// 1 soup of the same batches, ExpandSoup'd and concatenated.
func TestChunkedDecodeMatchesSoup(t *testing.T) {
	for _, tc := range batchCases {
		frame, _, batches := sealCase(tc.nodes)
		want := EncodeBinary(110.5, expandAll(batches...))
		for name, decode := range map[string]func() (*geom.Mesh, float32, error){
			"DecodeBinary":               func() (*geom.Mesh, float32, error) { return DecodeBinary(frame) },
			"DecodeBinaryView":           func() (*geom.Mesh, float32, error) { return DecodeBinaryView(frame, false) },
			"DecodeBinaryView(verified)": func() (*geom.Mesh, float32, error) { return DecodeBinaryView(frame, true) },
		} {
			m, iso, err := decode()
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.name, name, err)
			}
			if got := EncodeBinary(iso, m); !bytes.Equal(got, want) {
				t.Errorf("%s: %s's soup differs from the expanded batches'", tc.name, name)
			}
		}
		var nodes []*geom.Mesh
		for _, node := range tc.nodes {
			m, err := DecodeChunks(chunkBuf(node...))
			if err != nil {
				t.Fatalf("%s: DecodeChunks: %v", tc.name, err)
			}
			if !bytes.Equal(EncodeBinary(0, m), EncodeBinary(0, expandAll(node...))) {
				t.Errorf("%s: DecodeChunks differs from the node's expanded batches", tc.name)
			}
			nodes = append(nodes, m)
		}
		if !bytes.Equal(EncodeBinary(110.5, nodes...), want) {
			t.Errorf("%s: the nodes' soups, concatenated, differ from the frame's", tc.name)
		}
	}
}

// TestChunkedDecodeOwnsItsSoup: a version 2 frame's mesh is memory of its
// own, so the frame can be recycled the moment the decode returns.
func TestChunkedDecodeOwnsItsSoup(t *testing.T) {
	frame, _, _ := sealCase([][]*geom.IndexedMesh{{testBatch(40, 30, 9)}})
	m, _, err := DecodeBinaryView(frame, true)
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeBinary(0, m)
	for i := range frame {
		frame[i] = 0xa5
	}
	if !bytes.Equal(EncodeBinary(0, m), want) {
		t.Fatal("overwriting a v2 frame changed the mesh decoded from it")
	}
}

// v2Mutations are version 2 frames broken one way each, resealed so the CRC
// passes and only the structure (or an index) is at fault.
func v2Mutations() map[string][]byte {
	im := testBatch(5, 6, 11)
	good := portableChunked(3, FlagChecksum, im, testBatch(2, 4, 12))
	reseal := func(f func(b []byte) []byte) []byte {
		b := f(append([]byte(nil), good...))
		binary.LittleEndian.PutUint32(b[0:], uint32(len(b)-binPrefixSize))
		sum := crc32.Checksum(b[binPrefixSize:len(b)-binCRCSize], crcTable)
		binary.LittleEndian.PutUint32(b[len(b)-binCRCSize:], sum)
		return b
	}
	first := binMinFrame // the first chunk's header
	idx := first + chunkHeaderSize + 12*6
	return map[string][]byte{
		"header counts a triangle more":  reseal(func(b []byte) []byte { b[16]++; return b }),
		"header counts a triangle less":  reseal(func(b []byte) []byte { b[16]--; return b }),
		"chunk counts a triangle more":   reseal(func(b []byte) []byte { b[first+4]++; return b }),
		"chunk counts a vertex more":     reseal(func(b []byte) []byte { b[first]++; return b }),
		"chunk of no triangles":          reseal(func(b []byte) []byte { b[first+4] = 0; return b }),
		"32-bit indices for 6 vertices":  reseal(func(b []byte) []byte { b[first+8] = 4; return b }),
		"an index equal to the vertices": reseal(func(b []byte) []byte { b[idx] = 6; b[idx+1] = 0; return b }),
		"an index past the vertices":     reseal(func(b []byte) []byte { b[idx+1] = 0xff; return b }),
		"non-zero padding":               reseal(func(b []byte) []byte { b[idx+30] = 1; return b }),
		"a trailing partial chunk header": reseal(func(b []byte) []byte {
			return append(b[:len(b)-binCRCSize], 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // 8 bytes, then the trailer's room
		}),
	}
}

// TestChunkedDecodeRejectsMalformedChunks: with the CRC intact, every
// structural lie and every out-of-range index is ErrBinaryFormat — from the
// header peek and VerifyBinary where the structure lies, from every decoder
// in all cases.
func TestChunkedDecodeRejectsMalformedChunks(t *testing.T) {
	for name, frame := range v2Mutations() {
		_, _, herr := DecodeBinaryHeader(frame)
		index := name == "an index equal to the vertices" || name == "an index past the vertices"
		if index != (herr == nil) {
			t.Errorf("%s: header peek err = %v", name, herr)
		}
		if _, _, err := DecodeBinary(frame); !errors.Is(err, ErrBinaryFormat) || errors.Is(err, ErrChecksum) {
			t.Errorf("%s: DecodeBinary err = %v, want ErrBinaryFormat alone", name, err)
		}
		if _, _, err := DecodeBinaryView(frame, true); !errors.Is(err, ErrBinaryFormat) {
			t.Errorf("%s: DecodeBinaryView err = %v, want ErrBinaryFormat", name, err)
		}
	}
}

// TestChunkedDecodeAllocationBound: a decode allocates at most 6× the
// frame's bytes, accepted or not — the soup is sized from counts the
// structure has already held to the bytes.
func TestChunkedDecodeAllocationBound(t *testing.T) {
	frames := v2Mutations()
	for _, tc := range batchCases {
		frames[tc.name], _, _ = sealCase(tc.nodes)
	}
	var ms runtime.MemStats
	for name, frame := range frames {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		DecodeBinary(frame) //nolint:errcheck // only the allocation is measured
		runtime.ReadMemStats(&ms)
		if got := ms.TotalAlloc - before; got > 6*uint64(len(frame))+1024 {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(frame), got)
		}
	}
}
