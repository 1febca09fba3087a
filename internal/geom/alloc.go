package geom

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// MakeMesh returns a mesh of nv vertices and nt triangles of undefined
// contents, for a caller that writes every one before the mesh is read: the
// runtime's allocator without make's clear, a second write of every line. It
// panics where make would and leaves an array nil for a count of 0. Neither
// array holds a pointer, so the collector never reads the uncleared bytes.
func MakeMesh(nv, nt int) *Mesh {
	if nt < 0 || nt > math.MaxInt/12 {
		panic("geom: MakeMesh: triangle count out of range")
	}
	return &Mesh{Verts: uncleared[Vec3](nv), Idx: uncleared[uint32](3 * nt)}
}

// uncleared is n values of T from the allocator, 0xFF bytes under the poison.
func uncleared[T Vec3 | uint32](n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	switch {
	case n == 0:
		return nil
	case n < 0 || n > math.MaxInt/size:
		panic("geom: MakeMesh: len out of range")
	}
	p := mallocgc(uintptr(n*size), nil, false)
	if poisonMeshes.Load() {
		b := unsafe.Slice((*byte)(p), n*size)
		for i := range b {
			b[i] = 0xFF
		}
	}
	return unsafe.Slice((*T)(p), n)
}

// mallocgc is the runtime's allocator; the runtime keeps the symbol for
// packages outside it (go.dev/issue/67401), and a toolchain that dropped it
// would fail the link, not the program. A nil type is a noscan object, and
// needzero false skips the clear.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// poisonMeshes makes MakeMesh fill both arrays with 0xFF bytes (NaN bits, an
// index past any vertex), so a test sees a vertex or an index its caller
// failed to write instead of whatever the memory held.
var poisonMeshes atomic.Bool

// PoisonMeshes turns MakeMesh's poison fill on or off and reports whether it
// was on. It is a test switch, like UseGatherKernel: the byte-identity tests
// of the meshes' writers run with it on.
func PoisonMeshes(on bool) (was bool) {
	return poisonMeshes.Swap(on)
}
