//go:build !amd64

package meshio

import "repro/internal/geom"

// gridAVX2 is false: there are no vector kernels off amd64.
var gridAVX2 = false

func expandGridAVX2(dst *geom.Vec3, src *byte, n int) (lo, hi int, bad uint32) {
	panic("meshio: no vector grid kernel on this architecture")
}

func rebaseAVX2(dst *uint32, src *byte, n, width int, base uint32) (lo, hi int, top uint32) {
	panic("meshio: no vector rebase kernel on this architecture")
}
