// Package render is the software substitute for the paper's per-node GPUs:
// a z-buffered triangle rasterizer with Lambertian shading, a look-at
// perspective camera, and PPM image output. Each cluster node renders its
// local triangles into its own framebuffer; package composite then merges
// the framebuffers depth-wise exactly as the paper's sort-last pipeline
// does across Chromium rendering servers.
package render

import (
	"fmt"
	"math"
)

// RGB is an 8-bit color.
type RGB struct {
	R, G, B uint8
}

// Framebuffer holds a color buffer and a z-buffer. Depth is the distance
// from the camera; +Inf marks background pixels.
type Framebuffer struct {
	W, H  int
	Color []RGB
	Depth []float32
}

// NewFramebuffer allocates a cleared framebuffer.
func NewFramebuffer(w, h int) *Framebuffer {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("render: bad framebuffer size %d×%d", w, h))
	}
	fb := &Framebuffer{W: w, H: h, Color: make([]RGB, w*h), Depth: make([]float32, w*h)}
	fb.Clear(RGB{})
	return fb
}

// Clear resets every pixel to the background color at infinite depth.
func (fb *Framebuffer) Clear(bg RGB) {
	inf := float32(math.Inf(1))
	for i := range fb.Color {
		fb.Color[i] = bg
		fb.Depth[i] = inf
	}
}

// At returns the color at (x, y).
func (fb *Framebuffer) At(x, y int) RGB { return fb.Color[y*fb.W+x] }

// set writes a fragment if it is nearer than the stored depth.
func (fb *Framebuffer) set(x, y int, z float32, c RGB) {
	i := y*fb.W + x
	if z < fb.Depth[i] {
		fb.Depth[i] = z
		fb.Color[i] = c
	}
}

// CoveredPixels counts pixels with finite depth (hit by some triangle).
func (fb *Framebuffer) CoveredPixels() int {
	n := 0
	inf := float32(math.Inf(1))
	for _, d := range fb.Depth {
		if d < inf {
			n++
		}
	}
	return n
}

// SizeBytes returns the byte size of the color plus depth planes, the unit
// of sort-last network traffic.
func (fb *Framebuffer) SizeBytes() int64 {
	return int64(fb.W) * int64(fb.H) * (3 + 4)
}
