//go:build !amd64

package meshio

import "repro/internal/geom"

// gridAVX2 is false: there is no vector kernel off amd64.
var gridAVX2 = false

func expandGridAVX2(dst *geom.Vec3, src *byte, blocks int) (bad uint32) {
	panic("meshio: no vector grid kernel on this architecture")
}
