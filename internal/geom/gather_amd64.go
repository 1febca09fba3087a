//go:build !race

package geom

import "unsafe"

// gatherKernel: this build has gather_amd64.s, which needs SSE2 alone, as
// every amd64 host has.
const gatherKernel = true

// gatherNT gathers tris triangles into out from the nverts vertices at verts
// by the index triples at idx, width bytes an index (2 or 4), with streaming
// stores fenced before it returns. It reports false at the first index not
// below nverts, the triangles before it written.
//
//go:noescape
func gatherNT(out *Triangle, verts *Vec3, nverts int, idx unsafe.Pointer, width uintptr, tris int) (ok bool)
