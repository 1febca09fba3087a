package geom

import "unsafe"

// gatherBlock is the most triangles one kernel call gathers, ≈ 2.4 MB of
// soup: the scheduler cannot preempt assembly, so a goroutine gathering a
// huge mesh returns to Go between blocks.
const gatherBlock = 1 << 16

// useGatherNT selects the streaming-store kernel where the build has one
// (gather_amd64.s); tests turn it off to hold it to the portable loop.
var useGatherNT = gatherKernel

// UseGatherKernel turns the gather kernel on, where the build has one, or
// off, and reports whether it was on. It is a test switch: other packages'
// tests run their decoders on the portable loop through it.
func UseGatherKernel(on bool) (was bool) {
	was, useGatherNT = useGatherNT, on && gatherKernel
	return was
}

// Gather writes out's triangles, in order, from the index triples of idx
// into verts, corner by corner, and reports false when an index is not below
// len(verts): indices may be hostile bytes. idx holds at least 3·len(out)
// indices. The caller has sized out and owns it, so many meshes gather into
// disjoint parts of one soup at once. No request builds a soup: the version
// 1 wire encoder gathers into its frame's bytes, and the oracles into soups
// of their own. On amd64 the kernel writes with streaming stores, since a
// store that first read its line back would fetch it for nothing.
func Gather[I uint16 | uint32](out []Triangle, verts []Vec3, idx []I) bool {
	idx = idx[:3*len(out)]
	if !useGatherNT {
		return gatherPortable(out, verts, idx)
	}
	for len(out) > 0 {
		n := min(len(out), gatherBlock)
		if !gatherNT(&out[0], unsafe.SliceData(verts), len(verts), unsafe.Pointer(&idx[0]), unsafe.Sizeof(idx[0]), n) {
			return false
		}
		out, idx = out[n:], idx[3*n:]
	}
	return true
}

// gatherPortable is Gather in Go: the gather off amd64 and under the race
// detector, which sees no assembly's stores, and the kernel's test oracle.
func gatherPortable[I uint16 | uint32](out []Triangle, verts []Vec3, idx []I) bool {
	idx = idx[:3*len(out)]
	n := uint(len(verts))
	for i := range out {
		a, b, c := uint(idx[3*i]), uint(idx[3*i+1]), uint(idx[3*i+2])
		if a >= n || b >= n || c >= n {
			return false
		}
		// Corner by corner through a pointer: a Triangle literal is built in
		// a stack temporary with 4- and 8-byte stores and copied out with
		// 16-byte loads that straddle them, a store-forwarding stall apiece.
		t := &out[i]
		t.A = verts[a]
		t.B = verts[b]
		t.C = verts[c]
	}
	return true
}
