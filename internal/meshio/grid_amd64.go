package meshio

import "repro/internal/geom"

// gridAVX2 selects the vector kernels, expandGridAVX2 and rebaseAVX2, for a
// chunk's vertices and indices: the host runs AVX2 and its OS saves the YMM
// registers. Tests turn it off to hold the portable loops to the same
// results.
var gridAVX2 = cpuAVX2()

// cpuAVX2 reports whether AVX2 instructions may run: CPUID's AVX, OSXSAVE
// and AVX2 bits, and XCR0's SSE and AVX state bits.
func cpuAVX2() bool

// expandGridAVX2 is expandGrid's loop over vertices lo..hi of the n grid
// vertices at src, written to dst with streaming stores fenced before it
// returns: lo is how many come before dst's first 32-byte boundary (at most
// 7, and at most n), hi − lo a multiple of eight. The caller expands the
// rest. It reports non-zero when any vertex it expands is off the grid rule.
//
//go:noescape
func expandGridAVX2(dst *geom.Vec3, src *byte, n int) (lo, hi int, bad uint32)

// rebaseAVX2 is geom.Rebase over indices lo..hi of the n little-endian
// indices of width bytes (2 or 4) at src, written to dst plus base with
// streaming stores fenced before it returns, lo and hi as for
// expandGridAVX2. It returns the largest index it read, before the base.
//
//go:noescape
func rebaseAVX2(dst *uint32, src *byte, n, width int, base uint32) (lo, hi int, top uint32)
