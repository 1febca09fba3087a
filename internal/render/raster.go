package render

import (
	"repro/internal/geom"
)

// Shading parameterizes the flat Lambertian shading of a mesh.
type Shading struct {
	Base    RGB       // surface color at full illumination
	Ambient float32   // ambient term in [0,1]
	Light   geom.Vec3 // direction toward the light (normalized on use)
}

// DefaultShading is a neutral gray surface lit from over the left shoulder.
func DefaultShading() Shading {
	return Shading{Base: RGB{200, 200, 210}, Ambient: 0.25, Light: geom.V(0.4, 0.3, 0.85)}
}

// DrawMesh rasterizes every triangle of the mesh into fb through cam with
// flat shading (two-sided: back faces are lit by the flipped normal, since
// an isosurface is viewed from both sides). It returns the number of
// triangles that produced at least one fragment.
func DrawMesh(fb *Framebuffer, cam *Camera, mesh *geom.Mesh, sh Shading) int {
	light := sh.Light.Normalize()
	drawn := 0
	for i := range mesh.Len() {
		if drawTriangle(fb, cam, mesh.Triangle(i), light, sh) {
			drawn++
		}
	}
	return drawn
}

func drawTriangle(fb *Framebuffer, cam *Camera, tr geom.Triangle, light geom.Vec3, sh Shading) bool {
	ax, ay, az, okA := cam.Project(tr.A)
	bx, by, bz, okB := cam.Project(tr.B)
	cx, cy, cz, okC := cam.Project(tr.C)
	if !okA || !okB || !okC {
		return false // clipping at the near plane is skipped: cameras frame the data
	}

	// Flat Lambert with two-sided lighting.
	n := tr.UnitNormal()
	lambert := n.Dot(light)
	if lambert < 0 {
		lambert = -lambert
	}
	shade := sh.Ambient + (1-sh.Ambient)*lambert
	col := RGB{
		uint8(float32(sh.Base.R) * shade),
		uint8(float32(sh.Base.G) * shade),
		uint8(float32(sh.Base.B) * shade),
	}

	// Screen-space bounding box, clipped to the viewport.
	minX := int(min3(ax, bx, cx))
	maxX := int(max3(ax, bx, cx)) + 1
	minY := int(min3(ay, by, cy))
	maxY := int(max3(ay, by, cy)) + 1
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX > fb.W-1 {
		maxX = fb.W - 1
	}
	if maxY > fb.H-1 {
		maxY = fb.H - 1
	}
	if minX > maxX || minY > maxY {
		return false
	}

	// Edge-function fill with barycentric depth interpolation.
	area := (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
	if area == 0 {
		return false
	}
	inv := 1 / area
	drawn := false
	for y := minY; y <= maxY; y++ {
		py := float32(y) + 0.5
		for x := minX; x <= maxX; x++ {
			px := float32(x) + 0.5
			w0 := ((bx-px)*(cy-py) - (by-py)*(cx-px)) * inv
			w1 := ((cx-px)*(ay-py) - (cy-py)*(ax-px)) * inv
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			z := w0*az + w1*bz + w2*cz
			fb.set(x, y, z, col)
			drawn = true
		}
	}
	return drawn
}

func min3(a, b, c float32) float32 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max3(a, b, c float32) float32 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

// NodeColor returns a distinct base color for a cluster node, used by the
// examples to visualize how the striped distribution spreads the surface
// across nodes.
func NodeColor(node int) RGB {
	palette := []RGB{
		{228, 120, 100}, {120, 190, 120}, {110, 140, 220}, {220, 200, 100},
		{180, 120, 200}, {110, 200, 200}, {230, 150, 190}, {170, 170, 170},
	}
	return palette[node%len(palette)]
}
