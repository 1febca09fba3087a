package geom

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// MakeSoup returns n triangles whose contents are undefined, for a caller
// that writes every one of them before the slice is read or returned: the
// runtime's allocator without the clear that make runs, which on a soup of
// tens of megabytes costs about as much as the gather that overwrites it. It
// panics where make would, on a negative n or a byte size past int (which a
// 32-bit int reaches at 60 M triangles), and returns nil for n = 0. Triangle
// holds no pointers, so the garbage collector never reads the uncleared bytes.
func MakeSoup(n int) []Triangle {
	const size = int(unsafe.Sizeof(Triangle{}))
	switch {
	case n == 0:
		return nil
	case n < 0 || n > math.MaxInt/size:
		panic("geom: MakeSoup: len out of range")
	}
	p := mallocgc(uintptr(n*size), nil, false)
	if poisonSoups.Load() {
		b := unsafe.Slice((*byte)(p), n*size)
		for i := range b {
			b[i] = 0xFF
		}
	}
	return unsafe.Slice((*Triangle)(p), n)
}

// mallocgc is the runtime's allocator; the runtime keeps the symbol for
// packages outside it (go.dev/issue/67401), and a toolchain that dropped it
// would fail the link, not the program. A nil type is a noscan object, and
// needzero false skips the clear.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// poisonSoups makes MakeSoup fill every soup with 0xFF bytes, NaN bits in
// every coordinate, so that a test of a caller sees a triangle it failed to
// write instead of whatever the memory held.
var poisonSoups atomic.Bool

// PoisonSoups turns MakeSoup's poison fill on or off and reports whether it
// was on. It is a test switch, like UseGatherKernel: the byte-identity tests
// of the soups' writers run with it on.
func PoisonSoups(on bool) (was bool) {
	return poisonSoups.Swap(on)
}
