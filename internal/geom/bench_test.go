package geom

import (
	"math/rand"
	"testing"
)

// BenchmarkGather is the soup gather at the size of the repository
// benchmark's mean surface: 17 welded batches of 34 k vertices and 52 k
// triangles whose corners are near one another in the vertex array, gathered
// into their parts of one 32 MB soup — too large to stay in cache — reused
// from run to run, as the version 1 encoder reuses its caller's buffer. No
// request runs it: the encoder and the oracles are its callers. The rate is
// soup bytes written. kernel runs the streaming-store kernel, portable the
// Go loop.
func BenchmarkGather(b *testing.B) {
	const batches, verts, tris = 17, 34_000, 52_000
	rnd := rand.New(rand.NewSource(1))
	ims := make([]*Mesh, batches)
	for k := range ims {
		im := &Mesh{Verts: make([]Vec3, verts), Idx: make([]uint32, 3*tris)}
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
			soup := make([]Triangle, batches*tris)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, im := range ims {
					im.Gather(soup[k*tris:][:tris])
				}
			}
		})
	}
}
