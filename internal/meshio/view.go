package meshio

// The wire payload is defined as the bytes a []geom.Triangle holds in memory
// on a little-endian host with no struct padding. Where that is the host we
// are running on, triangles and payload bytes are the same memory and moving
// between them is a reinterpretation, not a per-triangle transcode. This file
// owns that reinterpretation — the package's only use of unsafe — and checks
// every precondition itself; callers get ok=false and take the portable
// per-triangle path (putTris/getTris) instead.

import (
	"encoding/binary"
	"unsafe"

	"repro/internal/geom"
)

// hostIsWire reports whether geom.Triangle's in-memory layout is the wire
// layout: nine little-endian float32 in A.X … C.Z order, 36 bytes, no
// padding. Everything but the byte order is a compile-time constant.
var hostIsWire = binary.NativeEndian.Uint16([]byte{1, 0}) == 1 &&
	unsafe.Sizeof(geom.Triangle{}) == binTriSize &&
	unsafe.Offsetof(geom.Triangle{}.B) == 12 &&
	unsafe.Offsetof(geom.Triangle{}.C) == 24 &&
	unsafe.Offsetof(geom.Vec3{}.Y) == 4 &&
	unsafe.Offsetof(geom.Vec3{}.Z) == 8

// triBytes returns tris' own memory as wire payload bytes. The view shares
// storage with tris; ok is false when the host layout is not the wire layout.
func triBytes(tris []geom.Triangle) (b []byte, ok bool) {
	if !hostIsWire {
		return nil, false
	}
	if len(tris) == 0 {
		return nil, true
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(tris))), len(tris)*binTriSize), true
}

// bytesTris returns payload's own memory as triangles, capacity clipped to
// the payload so an append reallocates instead of running past it. ok is
// false when the host layout is not the wire layout, payload is not a whole
// number of triangles, or it does not start on a float32 boundary.
func bytesTris(payload []byte) (tris []geom.Triangle, ok bool) {
	if !hostIsWire || len(payload)%binTriSize != 0 {
		return nil, false
	}
	if len(payload) == 0 {
		return nil, true
	}
	p := unsafe.Pointer(unsafe.SliceData(payload))
	if uintptr(p)%unsafe.Alignof(geom.Triangle{}) != 0 {
		return nil, false
	}
	return unsafe.Slice((*geom.Triangle)(p), len(payload)/binTriSize), true
}

// asBytes returns s's own memory as wire bytes: vertices (geom.Vec3) and
// indices (uint16, uint32) are stored on the wire as they lie in memory on a
// host whose triangles are. ok is false on any other host.
func asBytes[T geom.Vec3 | uint16 | uint32](s []T) (b []byte, ok bool) {
	if !hostIsWire {
		return nil, false
	}
	if len(s) == 0 {
		return nil, true
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0]))), true
}

// bytesAs returns b's own memory as values of T, the reverse of asBytes. ok
// is false when the host is not the wire, b is not a whole number of values,
// or it does not start on T's alignment.
func bytesAs[T geom.Vec3 | uint16 | uint32](b []byte) (s []T, ok bool) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if !hostIsWire || len(b)%size != 0 {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%unsafe.Alignof(zero) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), len(b)/size), true
}
