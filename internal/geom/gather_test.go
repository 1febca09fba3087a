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

// randomMesh is verts vertices of any bits, NaNs among them (the gather
// moves bits, not values), and tris triangles of random corners.
func randomMesh[I uint16 | uint32](rnd *rand.Rand, verts, tris int) ([]Vec3, []I) {
	vs := make([]Vec3, verts)
	for i := range vs {
		vs[i] = V(math.Float32frombits(rnd.Uint32()), math.Float32frombits(rnd.Uint32()), math.Float32frombits(rnd.Uint32()))
	}
	idx := make([]I, 3*tris)
	for i := range idx {
		idx[i] = I(rnd.Intn(verts))
	}
	return vs, idx
}

func checkGatherKernel[I uint16 | uint32](t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for n := 0; n <= 70; n++ {
		verts, idx := randomMesh[I](rnd, 1+rnd.Intn(50), n)
		checkGatherPaths(t, fmt.Sprintf("%d triangles", n), verts, idx)
	}
	verts, idx := randomMesh[I](rnd, 1<<16, gatherBlock+70)
	idx[0], idx[3*gatherBlock-1], idx[len(idx)-1] = 0, I(len(verts)-1), I(len(verts)-1)
	checkGatherPaths(t, "65 536 vertices", verts, idx)
	// The largest I: an index past the vertices for uint32, and past one
	// vertex fewer for uint16.
	checkGatherPaths(t, "65 535 vertices", verts[:len(verts)-1], idx)
	checkGatherPaths(t, "no vertices", nil, idx[:3])
}

// TestGatherMatchesCornerLoop holds Gather to the plain expansion, a
// Triangle of three looked-up corners apiece, for both index widths, on the
// portable loop and on the kernel where the build has one: on every build,
// so that the portable loop answers to something other than itself where it
// is the only gather. Each soup starts as NaN bits, so a triangle the gather
// skips shows instead of reading as zeros.
func TestGatherMatchesCornerLoop(t *testing.T) {
	t.Run("uint16", func(t *testing.T) { checkGatherCorners[uint16](t) })
	t.Run("uint32", func(t *testing.T) { checkGatherCorners[uint32](t) })
}

func checkGatherCorners[I uint16 | uint32](t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 17, 70, gatherBlock + 70} {
		nverts := 1 + rnd.Intn(50)
		if n > gatherBlock {
			nverts = 1 << 16
		}
		verts, idx := randomMesh[I](rnd, nverts, n)
		want := make([]Triangle, n)
		for i := range want {
			want[i] = Triangle{verts[idx[3*i]], verts[idx[3*i+1]], verts[idx[3*i+2]]}
		}
		for _, kernel := range []bool{false, true} {
			if kernel && !gatherKernel {
				continue
			}
			was := UseGatherKernel(kernel)
			got := poisonedSoup(n)
			ok := Gather(got, verts, idx)
			UseGatherKernel(was)
			if !ok || !slices.Equal(bitsOf(got), bitsOf(want)) {
				t.Fatalf("%d triangles, kernel %v: Gather (ok %v) differs from the corner loop", n, kernel, ok)
			}
		}
	}
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

// poisonedSoup is n triangles of NaN bits, every byte 0xFF.
func poisonedSoup(n int) []Triangle {
	nan := math.Float32frombits(^uint32(0))
	return slices.Repeat([]Triangle{{V(nan, nan, nan), V(nan, nan, nan), V(nan, nan, nan)}}, n)
}

// TestMakeMesh pins MakeMesh's contract: the vertices and triangles asked
// for in two allocations, nil arrays for none, a panic for a negative count
// or one whose bytes overflow int, and with the poison on every byte of both
// arrays 0xFF.
func TestMakeMesh(t *testing.T) {
	if m := MakeMesh(0, 0); m.Verts != nil || m.Idx != nil {
		t.Errorf("MakeMesh(0, 0) = %+v, want nil arrays", m)
	}
	for _, n := range []int{1, 2, 1000, 1 << 16} {
		m := MakeMesh(n, 2*n)
		if len(m.Verts) != n || cap(m.Verts) != n || len(m.Idx) != 6*n || cap(m.Idx) != 6*n {
			t.Errorf("MakeMesh(%d, %d) has %d (cap %d) vertices, %d (cap %d) indices", n, 2*n, len(m.Verts), cap(m.Verts), len(m.Idx), cap(m.Idx))
		}
		if allocs := testing.AllocsPerRun(3, func() { MakeMesh(n, 2*n) }); allocs != 3 {
			t.Errorf("MakeMesh(%d, %d) allocates %v times, want the mesh and its two arrays", n, 2*n, allocs)
		}
	}
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {math.MinInt, 0}, {math.MaxInt/12 + 1, 0}, {0, math.MaxInt/12 + 1}, {math.MaxInt, 0}, {0, math.MaxInt}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeMesh(%d, %d) did not panic", c[0], c[1])
				}
			}()
			MakeMesh(c[0], c[1])
		}()
	}
	defer PoisonMeshes(PoisonMeshes(true))
	for _, n := range []int{1, 7, 1 << 16} {
		m := MakeMesh(n, n)
		for _, v := range m.Verts {
			if math.Float32bits(v.X)&math.Float32bits(v.Y)&math.Float32bits(v.Z) != ^uint32(0) {
				t.Fatalf("MakeMesh(%d, %d) with the poison on: vertices not all 0xFF bytes", n, n)
			}
		}
		if !slices.Equal(m.Idx, slices.Repeat([]uint32{^uint32(0)}, 3*n)) {
			t.Fatalf("MakeMesh(%d, %d) with the poison on: indices not all 0xFF bytes", n, n)
		}
	}
	if !PoisonMeshes(false) {
		t.Error("PoisonMeshes does not report that it was on")
	}
}
