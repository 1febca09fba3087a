package meshio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
)

// FuzzDecodeBinary holds the wire decoder to its contract under arbitrary
// input: it must return ErrBinaryFormat (never panic, never tolerate a
// malformed frame), and whatever it does accept must re-encode to the exact
// input bytes — so the fuzzer proves accepted frames are canonical, not
// merely survivable. The decoder allocates at most O(len(input)), enforced
// structurally (triangle count is validated against the payload length
// before the slice is made).
//
// All three decoders answer to it: the bulk-copy DecodeBinary, the aliasing
// DecodeBinaryView (CRC run here or vouched for by the caller) and the
// per-triangle getTris oracle must yield the same triangles bit for bit, and
// the view must fall back to a private copy — not a misaligned pointer —
// when the same frame sits at byte offsets 1–3 of a larger buffer.
func FuzzDecodeBinary(f *testing.F) {
	empty := EncodeBinary(0, &geom.Mesh{})
	one := EncodeBinary(110, &geom.Mesh{Tris: []geom.Triangle{{
		A: geom.V(0, 0, 0), B: geom.V(1, 0, 0), C: geom.V(0, 1, 0),
	}}})
	many := EncodeBinary(-3.25, testMesh(9, 2))

	f.Add(empty)
	f.Add(one)
	f.Add(many)
	f.Add(one[:len(one)-7])                        // truncated payload
	f.Add(append(append([]byte(nil), many...), 1)) // trailing byte
	f.Add([]byte{})                                // no bytes at all
	f.Add(bytes.Repeat([]byte{0xff}, binMinFrame)) // hostile prefix + count
	corruptVersion := append([]byte(nil), one...)
	binary.LittleEndian.PutUint16(corruptVersion[8:], 2)
	f.Add(corruptVersion)

	// Checksum-flag frames: valid trailers, a flipped payload byte (CRC must
	// catch it), a flag with no room for a trailer, and a truncated trailer.
	f.Add(EncodeBinaryChecksum(0, &geom.Mesh{}))
	summed := AppendBinaryChecksum(nil, 110, &geom.Mesh{Tris: []geom.Triangle{{
		A: geom.V(0, 0, 0), B: geom.V(1, 0, 0), C: geom.V(0, 1, 0),
	}}})
	f.Add(summed)
	flipped := append([]byte(nil), summed...)
	flipped[binMinFrame+5] ^= 0x40
	f.Add(flipped)
	flagNoRoom := append([]byte(nil), empty...)
	binary.LittleEndian.PutUint16(flagNoRoom[10:], FlagChecksum)
	f.Add(flagNoRoom)
	f.Add(summed[:len(summed)-2])

	// Frames the in-place paths care about: several meshes with an empty one
	// between them, and payload bits that only survive if moved as bits.
	f.Add(EncodeBinaryChecksum(-3.25, testMesh(2, 1), &geom.Mesh{}, testMesh(1, 7)))
	f.Add(EncodeBinary(110, nanMesh()))
	f.Add(EncodeBinaryChecksum(110, nanMesh(), nanMesh()))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, iso, err := DecodeBinary(data)
		// The view skips only the CRC when told to: structure is checked on
		// every path, so it errors exactly when the header peek does.
		_, _, herr := DecodeBinaryHeader(data)
		if _, _, verr := DecodeBinaryView(data, true); (verr == nil) != (herr == nil) {
			t.Fatalf("pre-verified view: err %v, header peek: err %v", verr, herr)
		}
		if err != nil {
			if !errors.Is(err, ErrBinaryFormat) {
				t.Fatalf("non-format error from pure decode: %v", err)
			}
			if _, _, verr := DecodeBinaryView(data, false); !errors.Is(verr, ErrBinaryFormat) {
				t.Fatalf("view accepted a frame DecodeBinary rejects (%v): %v", err, verr)
			}
			return
		}
		if m == nil {
			t.Fatal("nil mesh with nil error")
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
		// Round trip: an accepted frame is exactly what the encoder emits
		// (checksummed frames re-encode through the checksummed variant).
		re := EncodeBinary(iso, m)
		if binary.LittleEndian.Uint16(data[10:])&FlagChecksum != 0 {
			re = EncodeBinaryChecksum(iso, m)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted frame is not canonical: %d bytes in, %d bytes re-encoded", len(data), len(re))
		}

		// Decoder identity: the oracle's triangles, re-encoded by the
		// oracle, are the payload; every other decoder matches them.
		payload := data[binMinFrame : binMinFrame+ptris*binTriSize]
		oracle := make([]geom.Triangle, ptris)
		getTris(oracle, payload)
		if !bytes.Equal(putTris(nil, oracle), payload) {
			t.Fatal("per-triangle oracle does not round-trip the payload")
		}
		same := func(name string, got *geom.Mesh, giso float32, gerr error) {
			t.Helper()
			if gerr != nil {
				t.Fatalf("%s: %v", name, gerr)
			}
			if math.Float32bits(giso) != math.Float32bits(iso) || !bytes.Equal(putTris(nil, got.Tris), payload) {
				t.Fatalf("%s disagrees with the per-triangle oracle (%d vs %d triangles)", name, len(got.Tris), ptris)
			}
		}
		same("DecodeBinary", m, iso, nil)
		vm, viso, verr := DecodeBinaryView(data, false)
		same("DecodeBinaryView", vm, viso, verr)
		vm, viso, verr = DecodeBinaryView(data, true)
		same("DecodeBinaryView(verified)", vm, viso, verr)

		// The frame at offsets 0–3 of a larger buffer. Heap buffers start
		// 8-byte aligned, so offset 0 puts the payload on a float32 boundary
		// (viewed in place on a little-endian host) and 1–3 never do: those
		// must decode through a private copy, which -race's checkptr would
		// otherwise report as a misaligned conversion.
		for off := 0; off <= 3; off++ {
			buf := make([]byte, off+len(data)+1)
			at := buf[off : off+len(data)]
			copy(at, data)
			vm, viso, verr := DecodeBinaryView(at, false)
			same(fmt.Sprintf("DecodeBinaryView at offset %d", off), vm, viso, verr)
			if ptris == 0 {
				continue
			}
			at[binMinFrame] ^= 0xff
			aliased := !bytes.Equal(putTris(nil, vm.Tris), payload)
			if want := off == 0 && hostIsWire; aliased != want {
				t.Fatalf("offset %d: mesh aliases the buffer = %v, want %v", off, aliased, want)
			}
		}
	})
}
