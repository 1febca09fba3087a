package meshio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"repro/internal/geom"
)

// nanMesh holds float bit patterns that compare unequal to themselves or
// equal across different bits (NaNs, ±0, a denormal): a codec that moves
// values instead of bits would mangle them.
func nanMesh() *geom.Mesh {
	f := math.Float32frombits
	return &geom.Mesh{Tris: []geom.Triangle{{
		A: geom.Vec3{X: f(0x7fc00001), Y: f(0xffc00000), Z: f(0x7f800001)},
		B: geom.Vec3{X: f(0x80000000), Y: 0, Z: f(0x00000001)},
		C: geom.Vec3{X: float32(math.Inf(1)), Y: float32(math.Inf(-1)), Z: math.MaxFloat32},
	}}}
}

// portableFrame encodes the way the codec did before it learned to move
// payload as memory: header, then every component through putVec, then the
// CRC of it all. The bulk and sealed paths are held to these bytes.
func portableFrame(iso float32, flags uint16, meshes ...*geom.Mesh) []byte {
	tris := 0
	for _, m := range meshes {
		tris += len(m.Tris)
	}
	hdr := frameHeader(BinaryVersion, iso, flags, tris, binTriSize*tris)
	out := append([]byte(nil), hdr[:]...)
	for _, m := range meshes {
		out = putTris(out, m.Tris)
	}
	if flags&FlagChecksum != 0 {
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[binPrefixSize:], crcTable))
	}
	return out
}

var frameCases = []struct {
	name   string
	meshes []*geom.Mesh
}{
	{"no meshes", nil},
	{"one empty mesh", []*geom.Mesh{{}}},
	{"one mesh", []*geom.Mesh{testMesh(7, 1.5)}},
	{"several meshes", []*geom.Mesh{testMesh(3, 1), testMesh(5, 100), testMesh(1, -4)}},
	{"empties interleaved", []*geom.Mesh{{}, testMesh(4, 2), {}, {}, testMesh(9, 30), {}}},
	{"NaN and signed-zero bits", []*geom.Mesh{nanMesh(), {}, nanMesh()}},
	{"large", []*geom.Mesh{testMesh(4099, 0.5), testMesh(513, 9)}},
}

// TestBulkEncodeMatchesPerTriangleOracle pins the bulk-copy encoder to the
// per-triangle one, plain and checksummed.
func TestBulkEncodeMatchesPerTriangleOracle(t *testing.T) {
	for _, tc := range frameCases {
		if got, want := AppendBinary(nil, -3.25, tc.meshes...), portableFrame(-3.25, 0, tc.meshes...); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendBinary differs from the per-triangle encoding", tc.name)
		}
		if got, want := AppendBinaryChecksum(nil, -3.25, tc.meshes...), portableFrame(-3.25, FlagChecksum, tc.meshes...); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendBinaryChecksum differs from the per-triangle encoding", tc.name)
		}
	}
}

// TestSealedFrameViewsTheMeshes: sealing copies no chunk — the frame writes
// whatever the encoded meshes' memory holds at write time (which is why
// cached surfaces are immutable).
func TestSealedFrameViewsTheMeshes(t *testing.T) {
	buf := chunkBuf(testBatch(5, 6, 1))
	f := Seal(1, buf)
	buf[chunkHeaderSize] ^= 0x01 // a vertex bit
	var out bytes.Buffer
	f.WriteTo(&out) //nolint:errcheck // bytes.Buffer
	if out.Bytes()[binMinFrame+chunkHeaderSize] != buf[chunkHeaderSize] {
		t.Fatal("sealed frame holds a copy of the chunks, not a view")
	}
	if err := VerifyBinary(out.Bytes()); !errors.Is(err, ErrChecksum) {
		t.Fatalf("mutated chunk under a sealed CRC: err = %v, want ErrChecksum", err)
	}
}

// failAfter errors once n bytes have been accepted.
type failAfter struct{ n int }

var errSink = errors.New("sink full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errSink
	}
	w.n -= len(p)
	return len(p), nil
}

func TestSealedFrameWriteStopsAtFirstError(t *testing.T) {
	a, b := chunkBuf(testBatch(10, 12, 1)), chunkBuf(testBatch(10, 12, 2))
	f := Seal(7, a, b)
	for _, limit := range []int{0, 5, binMinFrame, binMinFrame + 100, binMinFrame + len(a) + 1, f.Len() - 1} {
		n, err := f.WriteTo(&failAfter{n: limit})
		if !errors.Is(err, errSink) || n != int64(limit) {
			t.Errorf("sink of %d bytes: WriteTo = (%d, %v), want (%d, errSink)", limit, n, err, limit)
		}
	}
}

// TestSealedFrameWriteZeroAllocSteadyState is the allocation gate behind
// "a cache hit is a write of immutable bytes": writing a sealed frame
// allocates nothing, however large the mesh.
func TestSealedFrameWriteZeroAllocSteadyState(t *testing.T) {
	f := Seal(110, chunkBuf(testBatch(20000, 13000, 1)), nil, chunkBuf(testBatch(30000, 70000, 2)))
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := f.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("writing a sealed %d-byte frame allocates %.0f times, want 0", f.Len(), allocs)
	}
}

// TestSoupDecodeOwnsItsTriangles: a version 1 frame's mesh is a copy, from
// either decoder — a write to the mesh leaves the frame alone, and a write
// to the frame leaves the mesh alone — so the frame can be recycled the
// moment the decode returns.
func TestSoupDecodeOwnsItsTriangles(t *testing.T) {
	frame := AppendBinaryChecksum(nil, 9, testMesh(6, 3))
	pristine := append([]byte(nil), frame...)
	for name, decode := range map[string]func([]byte) (*geom.Mesh, float32, error){
		"DecodeBinary":   DecodeBinary,
		"DecodeVerified": DecodeVerified,
	} {
		m, iso, err := decode(frame)
		if err != nil || iso != 9 || len(m.Tris) != 6 {
			t.Fatalf("%s: (%v, iso %v, %v)", name, m, iso, err)
		}
		m.Tris[1].C.Z = -1
		if !bytes.Equal(frame, pristine) {
			t.Fatalf("%s's mesh aliases its input", name)
		}
		want := AppendBinary(nil, 0, m)
		for i := range frame {
			frame[i] = 0xa5
		}
		if !bytes.Equal(AppendBinary(nil, 0, m), want) {
			t.Fatalf("overwriting a v1 frame changed the mesh %s decoded from it", name)
		}
		copy(frame, pristine)
	}
}

// TestDecodeVerifiedSkipsOnlyTheCRC: DecodeBinary runs the full check, and
// DecodeVerified skips the CRC and nothing else.
func TestDecodeVerifiedSkipsOnlyTheCRC(t *testing.T) {
	frame := AppendBinaryChecksum(nil, 7, testMesh(6, 4))
	frame[binMinFrame+3] ^= 0x01
	if _, _, err := DecodeBinary(frame); !errors.Is(err, ErrChecksum) {
		t.Fatalf("DecodeBinary of a corrupt frame: err = %v, want ErrChecksum", err)
	}
	if _, _, err := DecodeVerified(frame); err != nil {
		t.Fatalf("DecodeVerified re-ran the CRC: %v", err)
	}
	for name, bad := range map[string][]byte{
		"truncated": frame[:len(frame)-5],
		"short":     frame[:12],
		"empty":     nil,
	} {
		if _, _, err := DecodeVerified(bad); !errors.Is(err, ErrBinaryFormat) {
			t.Errorf("%s frame, caller vouching: err = %v, want ErrBinaryFormat", name, err)
		}
	}
}

// TestForeignHostPathsProduceTheSameBytes runs the codec the way a host
// whose triangle layout is not the wire layout would — every view refused,
// every path per-component, grid vertices and the gather through the
// portable loops — and holds it to the same bytes and the same triangles,
// version 1 and 2, plain and grid chunks. Not parallel: it flips the
// package's layout and kernel verdicts.
func TestForeignHostPathsProduceTheSameBytes(t *testing.T) {
	defer func(was bool) { hostIsWire = was }(hostIsWire)
	for _, tc := range frameCases {
		hostIsWire = true
		want := AppendBinaryChecksum(nil, 42, tc.meshes...)
		wantMesh, _, err := DecodeBinary(want)
		if err != nil {
			t.Fatal(err)
		}

		hostIsWire = false
		if got := AppendBinaryChecksum(nil, 42, tc.meshes...); !bytes.Equal(got, want) {
			t.Errorf("%s: per-triangle AppendBinaryChecksum differs", tc.name)
		}
		for name, decode := range map[string]func([]byte) (*geom.Mesh, float32, error){
			"DecodeBinary":   DecodeBinary,
			"DecodeVerified": DecodeVerified,
		} {
			m, iso, err := decode(want)
			if err != nil || iso != 42 {
				t.Errorf("%s: per-triangle %s: iso %v, err %v", tc.name, name, iso, err)
			} else if !bytes.Equal(putTris(nil, m.Tris), putTris(nil, wantMesh.Tris)) {
				t.Errorf("%s: per-triangle %s decodes different triangles", tc.name, name)
			}
		}
	}
	for _, tc := range batchCases {
		hostIsWire = true
		want, _, batches := sealCase(tc.nodes)
		wantMesh, _, err := DecodeBinary(want)
		if err != nil {
			t.Fatal(err)
		}

		hostIsWire = false
		withKernels(false, func() {
			got, _, _ := sealCase(tc.nodes)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: per-component PutChunk writes different bytes", tc.name)
			}
			m, _, err := DecodeBinary(want)
			if err != nil || !bytes.Equal(putTris(nil, m.Tris), putTris(nil, wantMesh.Tris)) {
				t.Errorf("%s: per-component gather decodes different triangles (err %v)", tc.name, err)
			}
			if soup := expandAll(batches...); !bytes.Equal(putTris(nil, m.Tris), putTris(nil, soup.Tris)) {
				t.Errorf("%s: per-component gather differs from the expanded batches", tc.name)
			}
		})
	}
}
