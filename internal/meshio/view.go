package meshio

// The wire payload is defined as the bytes a []geom.Triangle holds in memory
// on a little-endian host with no struct padding. Where that is the host we
// are running on, moving triangles, vertices or indices to or from the wire
// is one bulk copy or a read in place, not a per-component transcode. This
// file owns that reinterpretation — the package's only use of unsafe — and
// checks every precondition itself; callers get ok=false and take the
// portable per-component path (putTris/getVerts and the chunk codec's
// loops) instead.

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

// asBytes returns s's own memory as wire bytes, sharing its storage:
// vertices (geom.Vec3) and indices (uint32) are stored on the wire as they
// lie in memory on a host whose triangles are. ok is false on any other
// host.
func asBytes[T geom.Vec3 | uint32](s []T) (b []byte, ok bool) {
	if !hostIsWire {
		return nil, false
	}
	if len(s) == 0 {
		return nil, true
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0]))), true
}

// bytesAs returns b's own memory as values of T — triangles, vertices or
// indices of either width — the reverse of asBytes. ok
// is false when the host is not the wire, b is not a whole number of values,
// or it does not start on T's alignment.
func bytesAs[T geom.Triangle | geom.Vec3 | uint16 | uint32](b []byte) (s []T, ok bool) {
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
