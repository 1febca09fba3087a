package meshio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/geom"
)

// frameSeeds are the hand-written frames both fuzz targets start from: valid,
// truncated, padded, hostile and checksummed.
func frameSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }

	empty := AppendBinary(nil, 0, &geom.Mesh{})
	one := AppendBinary(nil, 110, &geom.Mesh{Tris: []geom.Triangle{{
		A: geom.V(0, 0, 0), B: geom.V(1, 0, 0), C: geom.V(0, 1, 0),
	}}})
	many := AppendBinary(nil, -3.25, testMesh(9, 2))

	add(empty)
	add(one)
	add(many)
	add(one[:len(one)-7])                        // truncated payload
	add(append(append([]byte(nil), many...), 1)) // trailing byte
	add([]byte{})                                // no bytes at all
	add(bytes.Repeat([]byte{0xff}, binMinFrame)) // hostile prefix + count
	corruptVersion := append([]byte(nil), one...)
	binary.LittleEndian.PutUint16(corruptVersion[8:], 2)
	add(corruptVersion)

	// Checksum-flag frames: valid trailers, a flipped payload byte (CRC must
	// catch it), a flag with no room for a trailer, and a truncated trailer.
	add(AppendBinaryChecksum(nil, 0, &geom.Mesh{}))
	summed := AppendBinaryChecksum(nil, 110, &geom.Mesh{Tris: []geom.Triangle{{
		A: geom.V(0, 0, 0), B: geom.V(1, 0, 0), C: geom.V(0, 1, 0),
	}}})
	add(summed)
	flipped := append([]byte(nil), summed...)
	flipped[binMinFrame+5] ^= 0x40
	add(flipped)
	flagNoRoom := append([]byte(nil), empty...)
	binary.LittleEndian.PutUint16(flagNoRoom[10:], FlagChecksum)
	add(flagNoRoom)
	add(summed[:len(summed)-2])

	// Frames the bulk copies care about: several meshes with an empty one
	// between them, and payload bits that only survive if moved as bits.
	add(AppendBinaryChecksum(nil, -3.25, testMesh(2, 1), &geom.Mesh{}, testMesh(1, 7)))
	add(AppendBinary(nil, 110, nanMesh()))
	add(AppendBinaryChecksum(nil, 110, nanMesh(), nanMesh()))

	// Version 2: 16- and 32-bit chunks, nodes of several chunks, no chunk at
	// all (an empty surface, checksummed and not), a frame without the
	// checksum flag, and frames whose counts or indices lie under a valid CRC.
	v2, _, _ := sealCase([][]*geom.IndexedMesh{{testBatch(3, 4, 1), testBatch(2, 3, 2)}, {testBatch(5, 7, 3)}})
	add(v2)
	wide, _, _ := sealCase([][]*geom.IndexedMesh{{testBatch(2, 65537, 4)}})
	add(wide)
	add(portableChunked(7, FlagChecksum))
	add(portableChunked(7, 0))
	add(portableChunked(-1, 0, testBatch(4, 5, 5)))
	add(v2[:len(v2)-3])
	// Grid form: chunks of every axis, NaN, −0 and +Inf crossings (accepted,
	// bits kept), grid and plain chunks in one node, and the grid rule's
	// breaches under a valid CRC (among v2Mutations).
	grid, _, _ := sealCase([][]*geom.IndexedMesh{{gridCorners(), testBatch(2, 3, 13)}, {gridBatch(9, 12, 14)}})
	add(grid)
	add(portableChunked(2, FlagChecksum, gridOddities()))
	add(portableChunked(2, 0, gridBatch(4, 5, 15), gridOddities()))
	for _, name := range slices.Sorted(maps.Keys(v2Mutations())) {
		add(v2Mutations()[name])
	}
	return seeds
}

// FuzzDecodeBinary holds the wire decoder to its contract under arbitrary
// input: it must return ErrBinaryFormat (never panic, never tolerate a
// malformed frame), and whatever it does accept must re-encode to the exact
// input bytes — so the fuzzer proves accepted frames are canonical, not
// merely survivable. The decoder's soup is at most 6× len(input), enforced
// structurally (triangle counts are validated against the bytes before the
// soup is made); its vertex scratch, at most 1.5×, is
// TestChunkedDecodeAllocationBound's.
//
// Every decoder answers to it: DecodeBinary, DecodeVerified (the CRC vouched
// for by the caller) and the per-component oracles must yield the same
// triangles bit for bit. A version 1 frame's oracle is getTris; a version 2
// frame's is the differential against soup — its chunks read back as
// batches (parseBatches), re-encoded by portableChunked to the input, and
// their triangles expanded corner by corner (expandAll, which does not call
// geom.Gather), concatenated, are what every decoder must return;
// portableChunked re-encodes each batch in the form the rule gives it, so an
// accepted chunk of either form is the one encoding of its batch. With both
// kernels off (withKernels) — the vector grid kernel and geom's
// streaming-store gather — the portable loops must accept the same frames
// and decode them to the same bits, so the fuzzer holds each kernel to its
// loop verdict for verdict, bit for bit;
// TestDecodeSeedsWithPortableLoop runs every seed on the portable loops
// alone, as a host without the kernels does. The same frame at byte offsets
// 1–3 of a larger buffer must decode through the scratch — not a misaligned
// pointer — and at no offset may the mesh alias the buffer. Soups are
// poisoned (geom.PoisonSoups) here and in TestDecodeSeedsWithPortableLoop, so
// a triangle a decoder skips reads as NaN bits, not as what the memory held.
func FuzzDecodeBinary(f *testing.F) {
	defer geom.PoisonSoups(geom.PoisonSoups(true))
	for _, seed := range frameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkDecodeBinary)
}

// TestDecodeSeedsWithPortableLoop holds FuzzDecodeBinary's seeds to its
// contract with both kernels off, so the portable loops answer for every
// grid chunk and every gather, on any host.
func TestDecodeSeedsWithPortableLoop(t *testing.T) {
	defer geom.PoisonSoups(geom.PoisonSoups(true))
	withKernels(false, func() {
		for i, seed := range frameSeeds() {
			t.Run(fmt.Sprint(i), func(t *testing.T) { checkDecodeBinary(t, seed) })
		}
	})
}

// checkDecodeBinary is FuzzDecodeBinary's check of one input.
func checkDecodeBinary(t *testing.T, data []byte) {
	m, iso, err := DecodeBinary(data)
	// DecodeVerified skips only the CRC: structure is checked on every
	// path, so it errors when the header peek does — and past it only on a
	// version 2 vertex or index, which the peek does not read.
	_, _, herr := DecodeBinaryHeader(data)
	chunked := herr == nil && binary.LittleEndian.Uint16(data[8:]) == ChunkedVersion
	_, _, verr := DecodeVerified(data)
	if herr != nil && verr == nil || herr == nil && verr != nil && !(chunked && errors.Is(verr, ErrBinaryFormat)) {
		t.Fatalf("DecodeVerified: err %v, header peek: err %v", verr, herr)
	}
	if err != nil {
		if !errors.Is(err, ErrBinaryFormat) {
			t.Fatalf("non-format error from pure decode: %v", err)
		}
		withKernels(false, func() {
			if _, _, kerr := DecodeBinary(data); kerr == nil {
				t.Fatalf("the portable loops accept a frame the kernels reject: %v", err)
			}
		})
		return
	}
	if m == nil {
		t.Fatal("nil mesh with nil error")
	}
	if 36*len(m.Tris) > 6*len(data) {
		t.Fatalf("%d bytes decoded to %d triangles, over the 6× allocation bound", len(data), len(m.Tris))
	}
	// The header peek must agree with the full decode.
	piso, ptris, perr := DecodeBinaryHeader(data)
	if perr != nil || ptris != len(m.Tris) || math.Float32bits(piso) != math.Float32bits(iso) {
		t.Fatalf("header peek (%v, %d, %v) disagrees with decode (%v, %d)",
			piso, ptris, perr, iso, len(m.Tris))
	}
	// An accepted frame also verifies (decode is strictly stronger).
	if verr := VerifyBinary(data); verr != nil {
		t.Fatalf("decoded frame fails VerifyBinary: %v", verr)
	}
	h, _ := decodeHeader(data)

	// Round trip: an accepted frame is exactly what the encoder emits
	// (checksummed frames re-encode through the checksummed variant), and
	// want is the soup payload every decoder must return.
	var want []byte
	if chunked {
		batches := parseBatches(t, h.payload)
		if re := portableChunked(iso, h.flags, batches...); !bytes.Equal(re, data) {
			t.Fatalf("accepted v2 frame is not canonical: %d bytes in, %d bytes re-encoded", len(data), len(re))
		}
		want = putTris(nil, expandAll(batches...).Tris)
	} else {
		re := AppendBinary(nil, iso, m)
		if h.flags&FlagChecksum != 0 {
			re = AppendBinaryChecksum(nil, iso, m)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted frame is not canonical: %d bytes in, %d bytes re-encoded", len(data), len(re))
		}
		// The oracle's triangles, re-encoded by the oracle, are the payload.
		oracle := make([]geom.Triangle, ptris)
		getTris(oracle, h.payload)
		if !bytes.Equal(putTris(nil, oracle), h.payload) {
			t.Fatal("per-triangle oracle does not round-trip the payload")
		}
		want = h.payload
	}
	same := func(name string, got *geom.Mesh, giso float32, gerr error) {
		t.Helper()
		if gerr != nil {
			t.Fatalf("%s: %v", name, gerr)
		}
		if math.Float32bits(giso) != math.Float32bits(iso) || !bytes.Equal(putTris(nil, got.Tris), want) {
			t.Fatalf("%s disagrees with the per-component oracle (%d vs %d triangles)", name, len(got.Tris), ptris)
		}
	}
	same("DecodeBinary", m, iso, nil)
	if chunked {
		withKernels(false, func() {
			pm, piso, perr := DecodeBinary(data)
			same("DecodeBinary on the portable loops", pm, piso, perr)
		})
	}
	vm, viso, verr := DecodeVerified(data)
	same("DecodeVerified", vm, viso, verr)

	// The frame at offsets 0–3 of a larger buffer. Heap buffers start
	// 8-byte aligned, so offset 0 puts the payload on a float32 boundary
	// and 1–3 never do: there bytesAs must refuse a plain chunk's vertices
	// and the gather read them through the scratch, which -race's checkptr
	// would otherwise report as a misaligned conversion. At every offset
	// the mesh is the decoder's own.
	for off := 0; off <= 3; off++ {
		buf := make([]byte, off+len(data)+1)
		at := buf[off : off+len(data)]
		copy(at, data)
		om, oiso, oerr := DecodeBinary(at)
		same(fmt.Sprintf("DecodeBinary at offset %d", off), om, oiso, oerr)
		if ptris == 0 {
			continue
		}
		for i := binMinFrame; i < len(at); i++ {
			at[i] ^= 0xff
		}
		if !bytes.Equal(putTris(nil, om.Tris), want) {
			t.Fatalf("offset %d: the mesh aliases the buffer it was decoded from", off)
		}
	}
}

// fuzzCoord makes one coordinate from a 4-byte word, its low three bits
// choosing what kind: a small grid integer, one at the 2¹⁴ edge, raw bits,
// −0, ±Inf, a NaN, an integer plus a fraction, or an integer out of the
// grid's range — so the fuzzer reaches every side of the grid rule at once.
func fuzzCoord(w uint32) float32 {
	v := w >> 3
	switch w & 7 {
	case 0:
		return float32(v % 20)
	case 1:
		return float32(1<<14 - 4 + v%8)
	case 2:
		return math.Float32frombits(w)
	case 3:
		return math.Float32frombits(0x80000000)
	case 4:
		return float32(math.Inf(1 - 2*int(v&1)))
	case 5:
		return math.Float32frombits(0x7f800001 | v | v<<31)
	case 6:
		return float32(v%16) + float32(v>>4&0xff)/256
	}
	return -float32(v%5) + float32(v>>3&1)*float32(1<<20)
}

// FuzzPutChunk holds the encoder to the form rule on meshes the weld kernel
// never makes: any coordinates (NaN, ±Inf, −0, integers past 2¹⁴, integer
// crossings), any indices below the vertex count, 16- and 32-bit widths.
// PutChunk must write exactly the oracle's bytes (portableChunk, whose form
// is oracleGrid's), ChunkLen must be their length, and the chunk must decode
// — alone and sealed in a frame — to the batch's ExpandSoup bit for bit.
func FuzzPutChunk(f *testing.F) {
	word := binary.LittleEndian.AppendUint32
	var grid, plain, edge []byte
	for _, w := range []uint32{8 | 0<<3, 0, 6 | 77<<3, 1 | 5<<3, 0 | 3<<3, 6 | 3<<3, 0, 0 | 19<<3, 2 | 0x3f000000} {
		grid = word(grid, w) // three vertices of the kinds a surface has
	}
	for _, w := range []uint32{5, 0, 0, 4, 0, 0, 3, 8, 8} {
		plain = word(plain, w) // a NaN, an Inf and a −0 vertex
	}
	for _, w := range []uint32{1, 1 | 3<<3, 6, 7, 0, 0, 3, 0, 8, 1 | 7<<3, 1 | 7<<3, 1 | 7<<3} {
		edge = word(edge, w) // 16 383 and 16 384, out of range, −0 beside integers
	}
	f.Add(uint8(3), false, grid, []byte{0, 1, 2, 2, 1, 0})
	f.Add(uint8(3), false, plain, []byte{0, 1, 2})
	f.Add(uint8(4), false, edge, []byte{0, 1, 2, 3, 3, 3})
	f.Add(uint8(3), true, grid, []byte{0, 1, 2, 255, 254, 7})
	f.Add(uint8(4), true, edge, []byte{9, 8, 7})
	f.Add(uint8(1), false, []byte{}, []byte{0})

	f.Fuzz(func(t *testing.T, nv uint8, wide bool, coords, idx []byte) {
		n := int(nv)%48 + 1
		if wide {
			n = narrowVerts + 1 // 32-bit indices: the n vertices repeat
		}
		im := &geom.IndexedMesh{Verts: make([]geom.Vec3, n)}
		for i := range im.Verts {
			var c [3]float32
			for k := range c {
				at := 4 * ((3*i + k) % (len(coords)/4 + 1))
				var w [4]byte
				copy(w[:], coords[min(at, len(coords)):])
				c[k] = fuzzCoord(binary.LittleEndian.Uint32(w[:]))
			}
			im.Verts[i] = geom.V(c[0], c[1], c[2])
		}
		for i := 0; i+2 < len(idx) && i < 3*64; i++ {
			im.Idx = append(im.Idx, uint32(idx[i])*2654435761%uint32(n))
		}
		im.Idx = im.Idx[:3*(len(im.Idx)/3)]

		want := portableChunk(nil, im, false)
		if im.Len() == 0 {
			want = nil
		}
		if ChunkLen(im) != len(want) {
			t.Fatalf("ChunkLen = %d, the rule's chunk is %d bytes (grid %v)", ChunkLen(im), len(want), oracleGrid(im.Verts))
		}
		got := make([]byte, len(want))
		PutChunk(got, im)
		if !bytes.Equal(got, want) {
			t.Fatalf("PutChunk wrote %d bytes that differ from the rule's encoding (grid %v)", len(got), oracleGrid(im.Verts))
		}
		soup := putTris(nil, im.ExpandSoup().Tris)
		m, err := DecodeChunks(got)
		if err != nil || !bytes.Equal(putTris(nil, m.Tris), soup) {
			t.Fatalf("DecodeChunks: err %v, or a soup unlike ExpandSoup's", err)
		}
		m, _, err = DecodeBinary(sealed(1, got))
		if err != nil || !bytes.Equal(putTris(nil, m.Tris), soup) {
			t.Fatalf("sealed frame: err %v, or a soup unlike ExpandSoup's", err)
		}
	})
}

// readFrameTwoPass is the reader ReadFrame replaced, kept as its oracle: the
// whole body in one ReadFull into fresh memory, then VerifyBinary's second
// walk over it.
func readFrameTwoPass(r io.Reader, maxBytes int, verify bool) ([]byte, error) {
	var prefix [binPrefixSize]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if n < binHeaderSize {
		return nil, binErr("length prefix %d below header size %d", n, binHeaderSize)
	}
	if uint64(n)+binPrefixSize > uint64(maxBytes) {
		return nil, binErr("frame of %d bytes exceeds limit %d", uint64(n)+binPrefixSize, maxBytes)
	}
	frame := make([]byte, binPrefixSize+int(n))
	copy(frame, prefix[:])
	if _, err := io.ReadFull(r, frame[binPrefixSize:]); err != nil {
		return nil, err
	}
	if verify {
		if err := VerifyBinary(frame); err != nil {
			return nil, err
		}
	}
	return frame, nil
}

var errFuzzReader = errors.New("fuzz reader gave up")

// endErrReader hands out data at most chunk bytes a Read and returns its
// error together with the last of them, as a reader is allowed to.
type endErrReader struct {
	data  []byte
	chunk int
}

func (r *endErrReader) Read(p []byte) (int, error) {
	n := copy(p[:min(len(p), r.chunk)], r.data)
	r.data = r.data[n:]
	if len(r.data) == 0 {
		return n, errFuzzReader
	}
	return n, nil
}

// FuzzReadFrame holds the one-pass reader to the two-pass one it replaced.
// For arbitrary bytes, size limit, chunk size and a reader that fragments
// them, ReadFrame returns the oracle's bytes or an error of the oracle's
// class — checksum, other malformation, input ran out, reader failed —
// whether or not it verifies. Along the way: the buffer is asked for at most
// once and never for more than the limit, and a frame read into a buffer
// full of someone else's bytes is made of r's bytes only.
func FuzzReadFrame(f *testing.F) {
	for i, seed := range frameSeeds() {
		f.Add(seed, uint16(0xffff), uint8(i), uint8(16+i))
	}
	f.Add(AppendBinaryChecksum(nil, 1, testMesh(40, 3)), uint16(0xffff), uint8(1), uint8(37))
	f.Add(AppendBinaryChecksum(nil, 1, testMesh(40, 3)), uint16(500), uint8(4), uint8(200)) // over the limit

	readers := []func([]byte, int) io.Reader{
		func(b []byte, _ int) io.Reader { return bytes.NewReader(b) },
		func(b []byte, _ int) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		func(b []byte, _ int) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		func(b []byte, _ int) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
		func(b []byte, chunk int) io.Reader { return &endErrReader{data: b, chunk: chunk} },
	}
	class := func(t *testing.T, err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, ErrChecksum):
			return "checksum"
		case errors.Is(err, ErrBinaryFormat):
			return "malformed"
		case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
			return "input ran out"
		case errors.Is(err, errFuzzReader):
			return "reader failed"
		}
		t.Fatalf("error of no known class: %v", err)
		return ""
	}

	f.Fuzz(func(t *testing.T, data []byte, limit uint16, mode, chunk uint8) {
		maxBytes := int(limit) + 1
		newReader := func() io.Reader { return readers[int(mode)%len(readers)](data, int(chunk)+1) }
		for _, verify := range []bool{false, true} {
			want, werr := readFrameTwoPass(newReader(), maxBytes, verify)

			var dirty []byte
			got, gerr := readFrame(newReader(), maxBytes, verify, func(size int) []byte {
				if dirty != nil {
					t.Fatal("buffer asked for twice")
				}
				if size > maxBytes {
					t.Fatalf("asked for %d bytes under a limit of %d", size, maxBytes)
				}
				dirty = bytes.Repeat([]byte{0xa5}, size+17)
				return dirty
			}, int(chunk)+1)

			if class(t, gerr) != class(t, werr) {
				t.Fatalf("verify=%v: one pass: %v; two passes: %v", verify, gerr, werr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("verify=%v: one pass returned %d bytes that differ from the two-pass reader's %d", verify, len(got), len(want))
			}
			if gerr == nil && &got[0] != &dirty[0] {
				t.Fatal("frame does not start at the start of the buffer it was given")
			}
			if gerr != nil && got != nil {
				t.Fatalf("an error (%v) came with %d bytes of frame", gerr, len(got))
			}
		}
	})
}

// TestReadFrameAtRealChunkEdges: the fuzzer moves a small chunk around small
// frames; this holds ReadFrame's own 256 KiB chunking to VerifyBinary on
// frames whose body is just under, exactly, and just over two chunks — intact,
// with one byte flipped at each edge, and cut off on a chunk boundary.
func TestReadFrameAtRealChunkEdges(t *testing.T) {
	for _, tris := range []int{14562, 14563, 14564} { // 14563: body = 2·readChunk exactly
		frame := AppendBinaryChecksum(nil, 3, testMesh(tris, 1))
		got, err := ReadFrame(iotest.HalfReader(bytes.NewReader(frame)), 0, true, nil)
		if err != nil || !bytes.Equal(got, frame) {
			t.Fatalf("%d triangles: intact frame: err %v, bytes equal %v", tris, err, bytes.Equal(got, frame))
		}
		for _, at := range []int{
			binPrefixSize, binMinFrame,
			binPrefixSize + readChunk - 1, binPrefixSize + readChunk,
			binPrefixSize + 2*readChunk - 1, len(frame) - binCRCSize - 1, len(frame) - 1,
		} {
			if at >= len(frame) {
				continue // the shortest body ends before the second chunk does
			}
			bad := append([]byte(nil), frame...)
			bad[at] ^= 0x10
			_, err := ReadFrame(bytes.NewReader(bad), 0, true, nil)
			if verr := VerifyBinary(bad); verr == nil || (err == nil) || errors.Is(err, ErrChecksum) != errors.Is(verr, ErrChecksum) {
				t.Errorf("%d triangles, byte %d flipped: one pass: %v; VerifyBinary: %v", tris, at, err, verr)
			}
			if got, err := ReadFrame(bytes.NewReader(bad), 0, false, nil); err != nil || !bytes.Equal(got, bad) {
				t.Errorf("%d triangles, byte %d flipped: unverified read: err %v", tris, at, err)
			}
		}
		cut := frame[:binPrefixSize+readChunk]
		if _, err := ReadFrame(bytes.NewReader(cut), 0, true, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d triangles, cut on a chunk boundary: err = %v, want io.ErrUnexpectedEOF", tris, err)
		}
	}
}
