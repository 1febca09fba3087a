package render

import (
	"sync"
	"time"

	"repro/internal/geom"
)

// DrawNodes renders per-node meshes the way the cluster's per-node GPUs do:
// one camera fitted to the union of the meshes' bounds, each mesh drawn into
// its own w×h framebuffer on its own goroutine. With colorByNode, mesh i is
// tinted NodeColor(i) to visualize the striped distribution; otherwise every
// mesh gets DefaultShading. It returns the framebuffers, ready for sort-last
// compositing, and each node's render wall time.
func DrawNodes(meshes []*geom.Mesh, w, h int, colorByNode bool) ([]*Framebuffer, []time.Duration) {
	bounds := geom.EmptyAABB()
	for _, m := range meshes {
		bounds = bounds.Union(m.Bounds())
	}
	cam := FitMesh(bounds, 45, w, h)
	fbs := make([]*Framebuffer, len(meshes))
	walls := make([]time.Duration, len(meshes))
	var wg sync.WaitGroup
	for i, m := range meshes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			sh := DefaultShading()
			if colorByNode {
				sh.Base = NodeColor(i)
			}
			fbs[i] = NewFramebuffer(w, h)
			DrawMesh(fbs[i], cam, m, sh)
			walls[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	return fbs, walls
}
