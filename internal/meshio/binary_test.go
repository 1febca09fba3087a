package meshio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

func testMesh(n int, seed float32) *geom.Mesh {
	m := &geom.Mesh{}
	for i := 0; i < n; i++ {
		f := seed + float32(i)
		m.Append(geom.Triangle{
			A: geom.V(f, f+0.25, f+0.5),
			B: geom.V(-f, f*2, 1/(f+1)),
			C: geom.V(f*f, -f, f+3),
		})
	}
	return m
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 513} {
		m := testMesh(n, 1.5)
		frame := AppendBinary(nil, 110.5, m)
		if len(frame) != frameSize(0, n) {
			t.Fatalf("n=%d: frame %d bytes, frameSize says %d", n, len(frame), frameSize(0, n))
		}
		got, iso, err := DecodeBinary(frame)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if iso != 110.5 {
			t.Fatalf("n=%d: iso %v, want 110.5", n, iso)
		}
		if len(got.Tris) != n {
			t.Fatalf("n=%d: %d triangles decoded", n, len(got.Tris))
		}
		if n > 0 && !bytes.Equal(AppendBinary(nil, iso, got), frame) {
			t.Fatalf("n=%d: re-encode is not byte-identical", n)
		}
	}
}

func TestBinaryConcatenatesMeshes(t *testing.T) {
	a, b := testMesh(3, 1), testMesh(5, 100)
	merged := &geom.Mesh{}
	merged.Append(a.Tris...)
	merged.Append(b.Tris...)
	if !bytes.Equal(AppendBinary(nil, 7, a, b), AppendBinary(nil, 7, merged)) {
		t.Fatal("per-node encode differs from merged encode")
	}
}

func TestBinaryNaNIsoRoundTrips(t *testing.T) {
	// Isovalues pass through as raw bits; even NaN survives.
	nan := math.Float32frombits(0x7fc00001)
	_, iso, err := DecodeBinary(AppendBinary(nil, nan, testMesh(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float32bits(iso) != 0x7fc00001 {
		t.Fatalf("NaN bits mangled: %#x", math.Float32bits(iso))
	}
}

func TestDecodeBinaryRejectsCorruptFrames(t *testing.T) {
	valid := AppendBinary(nil, 42, testMesh(4, 3))
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":       nil,
		"short":       valid[:12],
		"header only": valid[:20][:20:20],
		"truncated payload": mutate(func(b []byte) {
		})[:len(valid)-5],
		"trailing garbage": append(append([]byte(nil), valid...), 0xFF),
		"bad magic":        mutate(func(b []byte) { b[4] = 'X' }),
		"bad version":      mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[8:], 99) }),
		"flags set":        mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[10:], 1) }),
		"count too high":   mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 5) }),
		"count too low":    mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 3) }),
		"huge count":       mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], math.MaxUint32) }),
		"prefix mismatch":  mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[0:], 16) }),
	}
	for name, data := range cases {
		if _, _, err := DecodeBinary(data); !errors.Is(err, ErrBinaryFormat) {
			t.Errorf("%s: err = %v, want ErrBinaryFormat", name, err)
		}
	}
}

func TestBinaryChecksumRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 513} {
		m := testMesh(n, 2.5)
		frame := AppendBinaryChecksum(nil, 99, m)
		if len(frame) != frameSize(0, n)+4 {
			t.Fatalf("n=%d: checksummed frame %d bytes, want plain frame + 4 = %d", n, len(frame), frameSize(0, n)+4)
		}
		if err := VerifyBinary(frame); err != nil {
			t.Fatalf("n=%d: verify: %v", n, err)
		}
		got, iso, err := DecodeBinary(frame)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if iso != 99 || len(got.Tris) != n {
			t.Fatalf("n=%d: decoded (iso %v, %d tris)", n, iso, len(got.Tris))
		}
		if !bytes.Equal(AppendBinaryChecksum(nil, iso, got), frame) {
			t.Fatalf("n=%d: checksummed re-encode is not byte-identical", n)
		}
		// The header peek must not require the CRC and must agree on counts.
		piso, ptris, perr := DecodeBinaryHeader(frame)
		if perr != nil || piso != 99 || ptris != n {
			t.Fatalf("n=%d: header peek (%v, %d, %v)", n, piso, ptris, perr)
		}
	}
}

func TestBinaryChecksumDetectsCorruption(t *testing.T) {
	frame := AppendBinaryChecksum(nil, 7, testMesh(6, 4))
	// Flip every byte position in turn (a 1-bit-per-byte sweep would be
	// slow at 36 B/triangle; one bit per byte is what CRC32 trivially
	// catches anyway). Skip the length prefix: resizing the frame is a
	// structural error, tested elsewhere.
	for off := binPrefixSize; off < len(frame); off++ {
		b := append([]byte(nil), frame...)
		b[off] ^= 0x10
		err := VerifyBinary(b)
		if err == nil {
			t.Fatalf("flip at offset %d went undetected", off)
		}
		if !errors.Is(err, ErrBinaryFormat) {
			t.Fatalf("flip at offset %d: err = %v, want ErrBinaryFormat", off, err)
		}
		if _, _, derr := DecodeBinary(b); derr == nil {
			t.Fatalf("DecodeBinary accepted a corrupt frame (flip at %d)", off)
		}
	}
	// A payload flip specifically must be a checksum error (structure intact).
	b := append([]byte(nil), frame...)
	b[binMinFrame+3] ^= 0x01
	if err := VerifyBinary(b); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload flip: err = %v, want ErrChecksum", err)
	}
	// Unflagged frames have no trailer to check: verification is structural.
	if err := VerifyBinary(AppendBinary(nil, 7, testMesh(2, 1))); err != nil {
		t.Fatalf("plain frame failed verify: %v", err)
	}
}

func TestReadBinaryEnforcesLimit(t *testing.T) {
	frame := AppendBinary(nil, 9, testMesh(100, 1))
	if _, err := ReadFrame(bytes.NewReader(frame), len(frame), true, nil); err != nil {
		t.Fatalf("frame at exactly the limit: %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame), len(frame)-1, true, nil); !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("frame over the limit: err = %v, want ErrBinaryFormat", err)
	}

	// A hostile prefix declaring a huge frame must error before reading it.
	var huge [8]byte
	binary.LittleEndian.PutUint32(huge[:], math.MaxUint32)
	if _, err := ReadFrame(bytes.NewReader(huge[:]), 1<<20, true, nil); !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("hostile prefix: err = %v, want ErrBinaryFormat", err)
	}

	// A truncated stream surfaces the read error, not a format error.
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)/2]), 0, true, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream: err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestDecodeBinaryHeaderPeeks(t *testing.T) {
	m := testMesh(17, 5)
	iso, tris, err := DecodeBinaryHeader(AppendBinary(nil, 33, m))
	if err != nil {
		t.Fatal(err)
	}
	if iso != 33 || tris != 17 {
		t.Fatalf("peeked (%v, %d), want (33, 17)", iso, tris)
	}
	if _, _, err := DecodeBinaryHeader([]byte("go test fuzz v1")); err == nil ||
		!strings.Contains(err.Error(), "malformed") {
		t.Fatalf("garbage header: %v", err)
	}
}

func TestAppendBinaryAppends(t *testing.T) {
	prefix := []byte("existing")
	out := AppendBinary(append([]byte(nil), prefix...), 1, testMesh(2, 9))
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("AppendBinary clobbered existing bytes")
	}
	if _, _, err := DecodeBinary(out[len(prefix):]); err != nil {
		t.Fatal(err)
	}
}
