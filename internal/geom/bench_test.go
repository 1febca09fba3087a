package geom

import (
	"math/rand"
	"testing"
)

// BenchmarkGather is the pipeline's expand phase at the size the repository
// benchmark's sweep runs it: 17 welded batches of 34 k vertices and 52 k
// triangles whose corners are near one another in the vertex array, gathered
// into their parts of one 32 MB soup — too large to stay in cache — made
// afresh each time by MakeSoup, uncleared, as the expand phase and the chunk
// decoder make theirs. The rate is soup bytes written, the allocation
// included. kernel runs the streaming-store kernel, portable the Go loop.
func BenchmarkGather(b *testing.B) {
	const batches, verts, tris = 17, 34_000, 52_000
	rnd := rand.New(rand.NewSource(1))
	ims := make([]*IndexedMesh, batches)
	for k := range ims {
		im := &IndexedMesh{Verts: make([]Vec3, verts), Idx: make([]uint32, 3*tris)}
		for i := range im.Verts {
			im.Verts[i] = V(rnd.Float32(), rnd.Float32(), float32(k))
		}
		for i := range im.Idx {
			im.Idx[i] = uint32(min(max(i/3*verts/tris+rnd.Intn(400)-200, 0), verts-1))
		}
		ims[k] = im
	}
	for _, name := range []string{"kernel", "portable"} {
		kernel := name == "kernel"
		b.Run(name, func(b *testing.B) {
			if kernel && !gatherKernel {
				b.Skip("no gather kernel in this build")
			}
			defer UseGatherKernel(UseGatherKernel(kernel))
			b.SetBytes(batches * tris * 36)
			for i := 0; i < b.N; i++ {
				soup := MakeSoup(batches * tris)
				for k, im := range ims {
					im.Gather(soup[k*tris:][:tris])
				}
			}
		})
	}
}
