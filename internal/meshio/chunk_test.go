package meshio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"math"
	"runtime"
	"slices"
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

// gridBatch is a welded batch the way the weld kernel makes them: every
// vertex a fraction along a pseudo-random axis from an integer point of a
// grid 2¹⁴ samples a side — or, one in eight, the point itself — the
// indices testBatch's, deterministic in seed.
func gridBatch(tris, verts int, seed uint32) *geom.IndexedMesh {
	im := testBatch(tris, verts, seed)
	x := seed*2246822519 + 7
	for i := range im.Verts {
		x = x*1664525 + 1013904223
		p := [3]float32{float32(x >> 3 % (1 << 14)), float32(x >> 9 % 256), float32(x >> 17 % (1 << 14))}
		if x>>29 != 0 {
			p[x>>13%3] += float32(x&0xff+1) / 257
		}
		im.Verts[i] = geom.V(p[0], p[1], p[2])
	}
	return im
}

// oracleGridInt is chunk.go's "integer in [0, 2¹⁴), bit for bit", read
// without the codec's conversion trick: −0 and NaN fail the sign and the
// comparison.
func oracleGridInt(f float32) bool {
	return f >= 0 && f < 1<<14 && !math.Signbit(float64(f)) && float64(f) == math.Trunc(float64(f))
}

// gridOthers are, for each axis, the two other axes in order.
var gridOthers = [3][2]int{{1, 2}, {0, 2}, {0, 1}}

// oracleGridAxis is the lowest axis whose two other coordinates are grid
// integers; ok is false when there is none.
func oracleGridAxis(v geom.Vec3) (axis int, ok bool) {
	c := [3]float32{v.X, v.Y, v.Z}
	for a, o := range gridOthers {
		if oracleGridInt(c[o[0]]) && oracleGridInt(c[o[1]]) {
			return a, true
		}
	}
	return 0, false
}

// oracleGrid is the chunk form rule: grid when every vertex is a grid vertex.
func oracleGrid(verts []geom.Vec3) bool {
	for _, v := range verts {
		if _, ok := oracleGridAxis(v); !ok {
			return false
		}
	}
	return true
}

// portableChunk appends im's chunk to payload component by component,
// straight from the layout comment in chunk.go, in the form the rule gives
// unless plain forces 12-byte vertices: a chunk no encoder may write.
func portableChunk(payload []byte, im *geom.IndexedMesh, plain bool) []byte {
	le := binary.LittleEndian
	width := 2
	if len(im.Verts) > 65536 {
		width = 4
	}
	grid := !plain && oracleGrid(im.Verts)
	layout := uint32(width)
	if grid {
		layout |= 1 << 8
	}
	payload = le.AppendUint32(payload, uint32(len(im.Verts)))
	payload = le.AppendUint32(payload, uint32(im.Len()))
	payload = le.AppendUint32(payload, layout)
	for _, v := range im.Verts {
		if !grid {
			var rec [12]byte
			putVec(rec[:], v)
			payload = append(payload, rec[:]...)
			continue
		}
		a, _ := oracleGridAxis(v)
		c := [3]float32{v.X, v.Y, v.Z}
		o := gridOthers[a]
		payload = le.AppendUint16(payload, uint16(c[o[0]])|uint16(a)<<14)
		payload = le.AppendUint16(payload, uint16(c[o[1]]))
		payload = le.AppendUint32(payload, math.Float32bits(c[a]))
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
	return payload
}

// portableChunked encodes batches as a version 2 frame with portableChunk,
// with no view and no helper of the codec's but the fixed header: the oracle
// Seal and PutChunk are held to.
func portableChunked(iso float32, flags uint16, batches ...*geom.IndexedMesh) []byte {
	var payload []byte
	tris := 0
	for _, im := range batches {
		if im.Len() == 0 {
			continue
		}
		tris += im.Len()
		payload = portableChunk(payload, im, false)
	}
	hdr := frameHeader(ChunkedVersion, iso, flags, tris, len(payload))
	out := append(hdr[:], payload...)
	if flags&FlagChecksum != 0 {
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[binPrefixSize:], crcTable))
	}
	return out
}

// parseBatches is the oracle's reader: the batches a version 2 payload holds,
// read component by component. It trusts parseChunk for the structure only.
func parseBatches(t *testing.T, payload []byte) []*geom.IndexedMesh {
	t.Helper()
	le := binary.LittleEndian
	var out []*geom.IndexedMesh
	for len(payload) > 0 {
		c, err := parseChunk(payload)
		if err != nil {
			t.Fatalf("accepted payload does not parse: %v", err)
		}
		im := &geom.IndexedMesh{Verts: make([]geom.Vec3, c.verts), Idx: make([]uint32, 3*c.tris)}
		for i := range im.Verts {
			if !c.grid {
				im.Verts[i] = getVec(c.vb[12*i:])
				continue
			}
			first, second := le.Uint16(c.vb[8*i:]), le.Uint16(c.vb[8*i+2:])
			a := int(first >> 14)
			var v [3]float32
			v[a] = math.Float32frombits(le.Uint32(c.vb[8*i+4:]))
			v[gridOthers[a][0]] = float32(first & (1<<14 - 1))
			v[gridOthers[a][1]] = float32(second)
			im.Verts[i] = geom.V(v[0], v[1], v[2])
		}
		for i := range im.Idx {
			if c.width == 2 {
				im.Idx[i] = uint32(le.Uint16(c.ib[2*i:]))
			} else {
				im.Idx[i] = le.Uint32(c.ib[4*i:])
			}
		}
		out = append(out, im)
		payload = payload[c.size:]
	}
	return out
}

// expandAll is the version 1 soup of the batches: each one's triangles, a
// Triangle of three looked-up corners apiece, concatenated. It does not go
// through geom.Gather, the code the decoders are held to it for.
func expandAll(batches ...*geom.IndexedMesh) *geom.Mesh {
	out := &geom.Mesh{}
	for _, im := range batches {
		v, idx := im.Verts, im.Idx
		for i := 0; i < len(idx); i += 3 {
			out.Append(geom.Triangle{A: v[idx[i]], B: v[idx[i+1]], C: v[idx[i+2]]})
		}
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
	{"grid, one batch", [][]*geom.IndexedMesh{{gridBatch(7, 9, 21)}}},
	{"grid, exactly 65536 vertices: 16-bit", [][]*geom.IndexedMesh{{gridBatch(5, 65536, 22)}}},
	{"grid, 65537 vertices: 32-bit", [][]*geom.IndexedMesh{{gridBatch(3, 65537, 23)}}},
	{"grid and plain batches in every node", [][]*geom.IndexedMesh{
		{gridBatch(3, 4, 24), testBatch(2, 3, 25), gridBatch(4099, 2600, 26)},
		{},
		{testBatch(6, 6, 27), {}, gridBatch(11, 20, 28)},
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
// the layout comment's encoding, byte for byte — both index widths, both
// vertex forms, nodes and batches with nothing in them, chunks of odd and
// even triangle counts — and its length, verification and header agree.
func TestSealedFrameBytesEqualPortableEncoding(t *testing.T) {
	forms := map[bool]int{}
	for _, tc := range batchCases {
		got, want, batches := sealCase(tc.nodes)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sealed frame's %d bytes differ from the portable encoding's %d", tc.name, len(got), len(want))
		}
		for _, im := range batches {
			if im.Len() > 0 {
				forms[oracleGrid(im.Verts)]++
			}
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
		if h, _ := decodeHeader(got); h.version != ChunkedVersion {
			t.Errorf("%s: sealed frame is version %d, not 2", tc.name, h.version)
		}
	}
	if forms[true] == 0 || forms[false] == 0 {
		t.Errorf("the cases hold %d grid and %d plain chunks: both forms must be covered", forms[true], forms[false])
	}
}

// TestChunkedDecodeMatchesSoup is the differential behind "soup only in the
// caller's hands": decoding a version 2 frame — DecodeBinary, DecodeVerified,
// DecodeChunks node by node — yields bit for bit the version 1 soup of the
// same batches, expanded corner by corner (expandAll) and concatenated. Soups
// are poisoned (geom.PoisonSoups), so a triangle a decoder skips reads as NaN
// bits, not as what the memory held.
func TestChunkedDecodeMatchesSoup(t *testing.T) {
	defer geom.PoisonSoups(geom.PoisonSoups(true))
	for _, tc := range batchCases {
		frame, _, batches := sealCase(tc.nodes)
		want := AppendBinary(nil, 110.5, expandAll(batches...))
		for name, decode := range map[string]func([]byte) (*geom.Mesh, float32, error){
			"DecodeBinary":   DecodeBinary,
			"DecodeVerified": DecodeVerified,
		} {
			m, iso, err := decode(frame)
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.name, name, err)
			}
			if got := AppendBinary(nil, iso, m); !bytes.Equal(got, want) {
				t.Errorf("%s: %s's soup differs from the expanded batches'", tc.name, name)
			}
		}
		var nodes []*geom.Mesh
		for _, node := range tc.nodes {
			m, err := DecodeChunks(chunkBuf(node...))
			if err != nil {
				t.Fatalf("%s: DecodeChunks: %v", tc.name, err)
			}
			if !bytes.Equal(AppendBinary(nil, 0, m), AppendBinary(nil, 0, expandAll(node...))) {
				t.Errorf("%s: DecodeChunks differs from the node's expanded batches", tc.name)
			}
			nodes = append(nodes, m)
		}
		if !bytes.Equal(AppendBinary(nil, 110.5, nodes...), want) {
			t.Errorf("%s: the nodes' soups, concatenated, differ from the frame's", tc.name)
		}
	}
}

// TestChunkedDecodeOwnsItsSoup: a version 2 frame's mesh is memory of its
// own, so the frame can be recycled the moment the decode returns.
func TestChunkedDecodeOwnsItsSoup(t *testing.T) {
	frame, _, _ := sealCase([][]*geom.IndexedMesh{{testBatch(40, 30, 9)}})
	m, _, err := DecodeVerified(frame)
	if err != nil {
		t.Fatal(err)
	}
	want := AppendBinary(nil, 0, m)
	for i := range frame {
		frame[i] = 0xa5
	}
	if !bytes.Equal(AppendBinary(nil, 0, m), want) {
		t.Fatal("overwriting a v2 frame changed the mesh decoded from it")
	}
}

// gridCorners is a grid batch whose vertices take each axis, the last one
// all integers (axis 0, its crossing a grid integer): the frame the grid
// mutations break.
func gridCorners() *geom.IndexedMesh {
	return &geom.IndexedMesh{
		Verts: []geom.Vec3{geom.V(0.5, 3, 4), geom.V(2, 7.25, 9), geom.V(1, 2, 3.5), geom.V(5, 6, 7)},
		Idx:   []uint32{0, 1, 2, 1, 2, 3},
	}
}

// gridOddities is a grid batch whose crossings are bit patterns a codec
// that moved values, or read −0 as an integer, would get wrong: NaN on axis
// 0 and 2, −0 on axes 0 and 1, +Inf. Every vertex is still a grid vertex.
func gridOddities() *geom.IndexedMesh {
	f := math.Float32frombits
	return &geom.IndexedMesh{
		Verts: []geom.Vec3{
			{X: f(0x7fc00001), Y: 3, Z: 4}, // NaN crossing, axis 0
			{X: 3, Y: f(0x80000000), Z: 4}, // −0 crossing: axis 1, not 0
			{X: 1, Y: 2, Z: f(0xffc00000)}, // NaN crossing, axis 2
			{X: f(0x80000000), Y: 0, Z: 0}, // −0 crossing, axis 0
			{X: 9, Y: float32(math.Inf(1)), Z: 16383},
		},
		Idx: []uint32{0, 1, 2, 2, 3, 4, 4, 0, 1},
	}
}

// v2Mutations are version 2 frames broken one way each, resealed so the CRC
// passes and only the structure, a vertex or an index is at fault.
func v2Mutations() map[string][]byte {
	im := testBatch(5, 6, 11)
	good := portableChunked(3, FlagChecksum, im, testBatch(2, 4, 12))
	grid := portableChunked(3, FlagChecksum, gridCorners())
	reseal := func(from []byte, f func(b []byte) []byte) []byte {
		b := f(append([]byte(nil), from...))
		binary.LittleEndian.PutUint32(b[0:], uint32(len(b)-binPrefixSize))
		sum := crc32.Checksum(b[binPrefixSize:len(b)-binCRCSize], crcTable)
		binary.LittleEndian.PutUint32(b[len(b)-binCRCSize:], sum)
		return b
	}
	first := binMinFrame // the first chunk's header
	idx := first + chunkHeaderSize + 12*6
	gv := func(i int) int { return first + chunkHeaderSize + 8*i } // grid vertex i
	plainGrid := frameHeader(ChunkedVersion, 3, FlagChecksum, 2, 0)
	return map[string][]byte{
		"header counts a triangle more":  reseal(good, func(b []byte) []byte { b[16]++; return b }),
		"header counts a triangle less":  reseal(good, func(b []byte) []byte { b[16]--; return b }),
		"chunk counts a triangle more":   reseal(good, func(b []byte) []byte { b[first+4]++; return b }),
		"chunk counts a vertex more":     reseal(good, func(b []byte) []byte { b[first]++; return b }),
		"chunk of no triangles":          reseal(good, func(b []byte) []byte { b[first+4] = 0; return b }),
		"32-bit indices for 6 vertices":  reseal(good, func(b []byte) []byte { b[first+8] = 4; return b }),
		"an index equal to the vertices": reseal(good, func(b []byte) []byte { b[idx] = 6; b[idx+1] = 0; return b }),
		"an index past the vertices":     reseal(good, func(b []byte) []byte { b[idx+1] = 0xff; return b }),
		"non-zero padding":               reseal(good, func(b []byte) []byte { b[idx+30] = 1; return b }),
		"a trailing partial chunk header": reseal(good, func(b []byte) []byte {
			return append(b[:len(b)-binCRCSize], 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // 8 bytes, then the trailer's room
		}),
		"grid bit on a plain chunk":    reseal(good, func(b []byte) []byte { b[first+9] |= 1; return b }),
		"layout word, bit 9 set":       reseal(grid, func(b []byte) []byte { b[first+9] |= 2; return b }),
		"layout word, bit 31 set":      reseal(grid, func(b []byte) []byte { b[first+11] |= 0x80; return b }),
		"grid vertex of axis 3":        reseal(grid, func(b []byte) []byte { b[gv(0)+1] |= 0xc0; return b }),
		"grid axis a lower one fits":   reseal(grid, func(b []byte) []byte { b[gv(3)+1] = b[gv(3)+1]&0x3f | 0x40; return b }),
		"grid integer of 2^14":         reseal(grid, func(b []byte) []byte { b[gv(0)+3] |= 0x40; return b }),
		"grid index past the vertices": reseal(grid, func(b []byte) []byte { b[gv(4)] = 4; return b }),
		"plain chunk of grid vertices": reseal(append(plainGrid[:], portableChunk(nil, gridCorners(), true)...),
			func(b []byte) []byte { return append(b, 0, 0, 0, 0) }), // the trailer's room
	}
}

// gatherOnly names the mutations only a decode sees: a vertex or an index
// off its rule, which the structural walk does not read.
var gatherOnly = map[string]bool{
	"an index equal to the vertices": true,
	"an index past the vertices":     true,
	"grid vertex of axis 3":          true,
	"grid axis a lower one fits":     true,
	"grid integer of 2^14":           true,
	"grid index past the vertices":   true,
	"plain chunk of grid vertices":   true,
}

// TestChunkedDecodeRejectsMalformedChunks: with the CRC intact, every
// structural lie, every vertex off its form's rule and every out-of-range
// index is ErrBinaryFormat — from the header peek and VerifyBinary where the
// structure lies, from every decoder in all cases.
func TestChunkedDecodeRejectsMalformedChunks(t *testing.T) {
	for name, frame := range v2Mutations() {
		_, _, herr := DecodeBinaryHeader(frame)
		if gatherOnly[name] != (herr == nil) {
			t.Errorf("%s: header peek err = %v", name, herr)
		}
		if _, _, err := DecodeBinary(frame); !errors.Is(err, ErrBinaryFormat) || errors.Is(err, ErrChecksum) {
			t.Errorf("%s: DecodeBinary err = %v, want ErrBinaryFormat alone", name, err)
		}
		if _, _, err := DecodeVerified(frame); !errors.Is(err, ErrBinaryFormat) {
			t.Errorf("%s: DecodeVerified err = %v, want ErrBinaryFormat", name, err)
		}
	}
}

// TestGridOdditiesRoundTrip: NaN and −0 crossings are grid vertices whose
// bits survive the trip, and −0 on axis 1 is not mistaken for an integer
// that would make axis 0 fit.
func TestGridOdditiesRoundTrip(t *testing.T) {
	im := gridOddities()
	if ChunkLen(im) != chunkHeaderSize+8*len(im.Verts)+20 {
		t.Fatalf("ChunkLen = %d, want the grid form's %d", ChunkLen(im), chunkHeaderSize+8*len(im.Verts)+20)
	}
	frame, want, _ := sealCase([][]*geom.IndexedMesh{{im}})
	if !bytes.Equal(frame, want) {
		t.Fatal("sealed frame differs from the portable encoding")
	}
	m, _, err := DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(putTris(nil, m.Tris), putTris(nil, im.ExpandSoup().Tris)) {
		t.Fatal("decoded soup differs from the batch's ExpandSoup")
	}
}

// TestChunkedDecodeAllocationBound: a decode allocates a soup of at most 6×
// the frame's bytes plus a vertex scratch of at most 1.5× them, accepted or
// not — both are sized from counts the structure has already held to the
// bytes. An accepted frame's soup is its triangles, so the rest is the
// scratch and is measured against its own bound.
func TestChunkedDecodeAllocationBound(t *testing.T) {
	frames := v2Mutations()
	for _, tc := range batchCases {
		frames[tc.name], _, _ = sealCase(tc.nodes)
	}
	const slack = 1024 // the Mesh and an error
	// scratch is the vertex scratch's bound for n frame bytes; the allocator
	// rounds a large object (over 32 KiB) up to whole 8 KiB pages.
	scratch := func(n uint64) uint64 {
		b := 3 * n / 2
		if b > 32<<10 {
			b += 8 << 10
		}
		return b
	}
	var ms runtime.MemStats
	for name, frame := range frames {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		m, _, err := DecodeBinary(frame)
		runtime.ReadMemStats(&ms)
		got, n := ms.TotalAlloc-before, uint64(len(frame))
		if err != nil {
			if got > 6*n+scratch(n)+slack {
				t.Errorf("%s: rejecting %d bytes allocated %d", name, n, got)
			}
			continue
		}
		soup := uint64(36 * len(m.Tris))
		if soup > 6*n || got-min(got, soup) > scratch(n)+slack {
			t.Errorf("%s: decoding %d bytes allocated a %d-byte soup and %d bytes besides", name, n, soup, got-min(got, soup))
		}
	}
}

// hostGridAVX2 is whether this host runs the vector grid kernel.
var hostGridAVX2 = gridAVX2

// withKernels runs f with both of the decoder's kernels — the vector grid
// kernel and geom's streaming-store gather — on where the host has them, or
// off, so that the portable loops answer alone. Not for parallel tests: it
// flips package-wide switches.
func withKernels(on bool, f func()) {
	defer func(grid, gather bool) {
		gridAVX2 = grid
		geom.UseGatherKernel(gather)
	}(gridAVX2, geom.UseGatherKernel(on))
	gridAVX2 = on && hostGridAVX2
	f()
}

// TestGridKernelMatchesPortableLoop holds the vector kernel to the portable
// loop: vertex for vertex, by bits, on grid chunks of every length around the
// eight-vertex block, and verdict for verdict with one vertex in each lane
// off the rule — or on it in a way only bits tell apart.
func TestGridKernelMatchesPortableLoop(t *testing.T) {
	if !gridAVX2 {
		t.Skip("no vector grid kernel on this host")
	}
	le := binary.LittleEndian
	vertex := func(first, second uint16, crossing uint32) func(v []byte) {
		return func(v []byte) {
			le.PutUint16(v, first)
			le.PutUint16(v[2:], second)
			le.PutUint32(v[4:], crossing)
		}
	}
	f32 := math.Float32bits
	lanes := map[string]struct {
		set func(v []byte)
		ok  bool
	}{
		"axis 3":                        {func(v []byte) { v[1] |= 0xc0 }, false},
		"second integer 2^14":           {func(v []byte) { v[3] |= 0x40 }, false},
		"integer crossing on axis 1":    {vertex(3|1<<14, 4, f32(5)), false},
		"integer crossing on axis 2":    {vertex(3|2<<14, 16383, f32(0)), false},
		"integer crossing on axis 0":    {vertex(3, 4, f32(16383)), true},
		"NaN crossing on axis 2":        {vertex(3|2<<14, 4, 0x7fc00001), true},
		"−0 crossing on axis 1":         {vertex(3|1<<14, 4, 0x80000000), true},
		"16384 crossing on axis 1":      {vertex(3|1<<14, 4, f32(16384)), true},
		"16383.5 crossing on axis 2":    {vertex(3|2<<14, 4, f32(16383.5)), true},
		"−3 crossing on axis 2":         {vertex(2<<14, 0, f32(-3)), true},
		"+Inf crossing on axis 1":       {vertex(1<<14, 1, f32(float32(math.Inf(1)))), true},
		"denormal crossing on axis 1":   {vertex(1<<14, 1, 1), true},
		"largest integers on each axis": {vertex(16383|2<<14, 16383, f32(0.5)), true},
	}
	expand := func(vector bool, vb []byte) (verts []geom.Vec3, ok bool) {
		verts = make([]geom.Vec3, len(vb)/8)
		withKernels(vector, func() { ok = expandGrid(verts, vb) })
		return verts, ok
	}
	for n := 1; n <= 33; n++ {
		vb := chunkBuf(gridBatch(1, n, uint32(n)))[chunkHeaderSize:][:8*n]
		want, wok := expand(false, vb)
		got, gok := expand(true, vb)
		if !wok || !gok || !slices.EqualFunc(got, want, func(a, b geom.Vec3) bool { return bitsOf(a) == bitsOf(b) }) {
			t.Fatalf("%d vertices: the kernels disagree (ok %v, %v)", n, gok, wok)
		}
		for _, name := range slices.Sorted(maps.Keys(lanes)) {
			lane := lanes[name]
			for i := 0; i < n; i++ {
				bad := append([]byte(nil), vb...)
				lane.set(bad[8*i:])
				want, wok := expand(false, bad)
				got, gok := expand(true, bad)
				if wok != lane.ok || gok != lane.ok {
					t.Fatalf("%d vertices, %s in vertex %d: portable ok %v, vector ok %v, want %v", n, name, i, wok, gok, lane.ok)
				}
				if lane.ok && !slices.EqualFunc(got, want, func(a, b geom.Vec3) bool { return bitsOf(a) == bitsOf(b) }) {
					t.Fatalf("%d vertices, %s in vertex %d: the kernels expand different vertices", n, name, i)
				}
			}
		}
	}
}

func bitsOf(v geom.Vec3) [3]uint32 {
	return [3]uint32{math.Float32bits(v.X), math.Float32bits(v.Y), math.Float32bits(v.Z)}
}
