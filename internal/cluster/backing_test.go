package cluster_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/volume"
)

// TestMemoryAndFileBackingsAgree builds one RM volume on two nodes twice, in
// memory and as files under a directory, and extracts every sweep isovalue
// from both. One Store reads either backing, so node by node the block
// accounting must be equal and the meshes the same bit for bit.
func TestMemoryAndFileBackingsAgree(t *testing.T) {
	g := volume.RichtmyerMeshkov(33, 33, 30, 230, 7)
	mem, err := cluster.Build(g, cluster.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	file, err := cluster.Build(g, cluster.Config{Procs: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	ctx := context.Background()
	var tris int
	for _, iso := range harness.Sweep() {
		a, err := mem.Extract(ctx, iso, cluster.Options{KeepMeshes: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := file.Extract(ctx, iso, cluster.Options{KeepMeshes: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.PerNode {
			na, nb := &a.PerNode[i], &b.PerNode[i]
			if na.IOStats != nb.IOStats {
				t.Errorf("iso %v node %d: memory read %+v, file %+v", iso, i, na.IOStats, nb.IOStats)
			}
			if !slices.Equal(na.Mesh.Idx, nb.Mesh.Idx) || !slices.EqualFunc(na.Mesh.Verts, nb.Mesh.Verts, func(x, y geom.Vec3) bool { return vecBits(x) == vecBits(y) }) {
				t.Errorf("iso %v node %d: memory and file soups differ (%d, %d triangles)", iso, i, na.Mesh.Len(), nb.Mesh.Len())
			}
		}
		tris += a.Triangles
	}
	if tris == 0 {
		t.Fatal("no triangles at any sweep isovalue; the comparison is vacuous")
	}
}

func vecBits(v geom.Vec3) [3]uint32 {
	return [3]uint32{math.Float32bits(v.X), math.Float32bits(v.Y), math.Float32bits(v.Z)}
}
