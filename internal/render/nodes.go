package render

import (
	"sync"
	"time"

	"repro/internal/geom"
)

// FitNodes fits one camera to the union of the per-node meshes' bounds with
// FitMesh's three-quarter view, for DrawNodes.
func FitNodes(meshes []*geom.Mesh, w, h int) *Camera {
	bounds := geom.EmptyAABB()
	for _, m := range meshes {
		bounds = bounds.Union(m.Bounds())
	}
	return FitMesh(bounds, 45, w, h)
}

// DrawNodes renders per-node meshes the way the cluster's per-node GPUs do:
// each mesh drawn through cam into its own cam.W×cam.H framebuffer on its own
// goroutine, tinted NodeColor(i) to visualize the striped distribution. It
// returns the framebuffers, ready for sort-last compositing, and each node's
// render wall time.
func DrawNodes(meshes []*geom.Mesh, cam *Camera) ([]*Framebuffer, []time.Duration) {
	fbs := make([]*Framebuffer, len(meshes))
	walls := make([]time.Duration, len(meshes))
	var wg sync.WaitGroup
	for i, m := range meshes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			sh := DefaultShading()
			sh.Base = NodeColor(i)
			fbs[i] = NewFramebuffer(cam.W, cam.H)
			DrawMesh(fbs[i], cam, m, sh)
			walls[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	return fbs, walls
}
