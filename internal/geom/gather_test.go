package geom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestGatherKernelMatchesPortableLoop holds the streaming-store kernel to the
// portable loop for both index widths: triangle for triangle, by bits, on 0
// to 70 triangles and on a 65 536-vertex mesh of more triangles than one
// kernel block, each gathered into the middle of a larger array whose
// sentinel triangles on both sides must come out untouched; and verdict for
// verdict with an index past the vertices first, in the middle and last.
func TestGatherKernelMatchesPortableLoop(t *testing.T) {
	if !gatherKernel {
		t.Skip("no gather kernel in this build: not amd64, or under the race detector")
	}
	t.Run("uint16", func(t *testing.T) { checkGatherKernel[uint16](t) })
	t.Run("uint32", func(t *testing.T) { checkGatherKernel[uint32](t) })
}

func checkGatherKernel[I uint16 | uint32](t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	mesh := func(verts, tris int) ([]Vec3, []I) {
		vs := make([]Vec3, verts)
		for i := range vs {
			// Any bits, NaNs among them: the gather moves bits, not values.
			vs[i] = V(math.Float32frombits(rnd.Uint32()), math.Float32frombits(rnd.Uint32()), math.Float32frombits(rnd.Uint32()))
		}
		idx := make([]I, 3*tris)
		for i := range idx {
			idx[i] = I(rnd.Intn(verts))
		}
		return vs, idx
	}
	for n := 0; n <= 70; n++ {
		verts, idx := mesh(1+rnd.Intn(50), n)
		checkGatherPaths(t, fmt.Sprintf("%d triangles", n), verts, idx)
	}
	verts, idx := mesh(1<<16, gatherBlock+70)
	idx[0], idx[3*gatherBlock-1], idx[len(idx)-1] = 0, I(len(verts)-1), I(len(verts)-1)
	checkGatherPaths(t, "65 536 vertices", verts, idx)
	// The largest I: an index past the vertices for uint32, and past one
	// vertex fewer for uint16.
	checkGatherPaths(t, "65 535 vertices", verts[:len(verts)-1], idx)
	checkGatherPaths(t, "no vertices", nil, idx[:3])
}

// checkGatherPaths gathers verts by idx on the portable loop and on the
// kernel and fails unless both give the same verdict and, when they accept,
// the same bits, with the sentinels around the output intact; then again
// with an index past the vertices first, in the middle and last, and across
// the first kernel block's end where the mesh has more than one block.
func checkGatherPaths[I uint16 | uint32](t *testing.T, name string, verts []Vec3, idx []I) {
	t.Helper()
	const pad = 2
	sentinel := Triangle{V(1, 2, 3), V(4, 5, 6), V(7, 8, 9)}
	gather := func(kernel bool, idx []I) ([]Triangle, bool) {
		defer UseGatherKernel(UseGatherKernel(kernel))
		backing := make([]Triangle, len(idx)/3+2*pad)
		for i := range backing {
			backing[i] = sentinel
		}
		ok := Gather(backing[pad:len(backing)-pad], verts, idx)
		return backing, ok
	}
	check := func(name string, idx []I, wantOK bool) {
		t.Helper()
		want, wok := gather(false, idx)
		got, gok := gather(true, idx)
		if wok != wantOK || gok != wantOK {
			t.Fatalf("%s: portable ok %v, kernel ok %v, want %v", name, wok, gok, wantOK)
		}
		for _, s := range [][]Triangle{got[:pad], got[len(got)-pad:]} {
			if !slices.Equal(s, []Triangle{sentinel, sentinel}) {
				t.Fatalf("%s: the kernel wrote past its part of the soup", name)
			}
		}
		if wantOK && !slices.Equal(bitsOf(got), bitsOf(want)) {
			t.Fatalf("%s: the kernel gathers different triangles", name)
		}
	}
	wantOK := true
	for _, i := range idx {
		wantOK = wantOK && int(i) < len(verts)
	}
	check(name, idx, wantOK)
	if len(idx) == 0 || len(verts) > int(^I(0)) {
		return // no index, or none of this width past the vertices
	}
	at := []int{0, len(idx) / 2, len(idx) - 1}
	if len(idx) > 3*gatherBlock {
		at = append(at, 3*gatherBlock-1, 3*gatherBlock)
	}
	for _, i := range at {
		bad := slices.Clone(idx)
		bad[i] = I(len(verts))
		check(fmt.Sprintf("%s, index %d = %d", name, i, len(verts)), bad, false)
	}
}
