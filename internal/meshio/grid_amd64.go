package meshio

import "repro/internal/geom"

// gridAVX2 selects expandGridAVX2 for a grid chunk's whole blocks of eight
// vertices: the host runs AVX2 and its OS saves the YMM registers. Tests
// turn it off to hold the portable loop to the same results.
var gridAVX2 = cpuAVX2()

// cpuAVX2 reports whether AVX2 instructions may run: CPUID's AVX, OSXSAVE
// and AVX2 bits, and XCR0's SSE and AVX state bits.
func cpuAVX2() bool

// expandGridAVX2 is expandGrid's loop over blocks×8 vertices, eight at a
// time: src holds 8·blocks grid vertices, dst has room for as many. It
// reports non-zero when any vertex is off the grid rule.
//
//go:noescape
func expandGridAVX2(dst *geom.Vec3, src *byte, blocks int) (bad uint32)
