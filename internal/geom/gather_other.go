//go:build !amd64 || race

package geom

import "unsafe"

// gatherKernel is false: there is no kernel off amd64, and under the race
// detector the portable loop runs so that every soup write is seen.
const gatherKernel = false

func gatherNT(out *Triangle, verts *Vec3, nverts int, idx unsafe.Pointer, width uintptr, tris int) (ok bool) {
	panic("geom: no gather kernel in this build")
}
