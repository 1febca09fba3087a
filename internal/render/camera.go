package render

import (
	"math"

	"repro/internal/geom"
)

// Camera is a perspective look-at camera. Project maps world coordinates to
// screen pixels plus camera-space depth.
type Camera struct {
	Eye, Target, Up geom.Vec3
	FovYDeg         float32 // vertical field of view in degrees
	W, H            int     // viewport in pixels

	// Derived basis (right-handed: x right, y up, z toward the viewer).
	right, up, back geom.Vec3
	scale           float32 // pixels per unit tangent
}

// LookAt constructs a camera at eye looking toward target.
func LookAt(eye, target geom.Vec3, fovYDeg float32, w, h int) *Camera {
	c := &Camera{Eye: eye, Target: target, Up: geom.V(0, 0, 1), FovYDeg: fovYDeg, W: w, H: h}
	c.derive()
	return c
}

func (c *Camera) derive() {
	c.back = c.Eye.Sub(c.Target).Normalize()
	// Guard the degenerate case of Up parallel to the view direction.
	if c.Up.Cross(c.back).Len() < 1e-6 {
		c.Up = geom.V(0, 1, 0)
	}
	c.right = c.Up.Cross(c.back).Normalize()
	c.up = c.back.Cross(c.right)
	half := float64(c.FovYDeg) * math.Pi / 360
	c.scale = float32(c.H) / (2 * float32(math.Tan(half)))
}

// Project maps a world point to pixel coordinates (x, y) and depth along the
// view direction. ok is false behind the camera.
func (c *Camera) Project(p geom.Vec3) (x, y, depth float32, ok bool) {
	d := p.Sub(c.Eye)
	depth = -d.Dot(c.back) // positive in front of the camera
	if depth <= 1e-6 {
		return 0, 0, 0, false
	}
	x = d.Dot(c.right) / depth * c.scale
	y = d.Dot(c.up) / depth * c.scale
	return float32(c.W)/2 + x, float32(c.H)/2 - y, depth, true
}

// FitMesh positions the camera to frame a bounding box from a default
// three-quarter view, a convenience for the examples and figures.
func FitMesh(b geom.AABB, fovYDeg float32, w, h int) *Camera {
	center := b.Center()
	size := b.Size().Len()
	if size == 0 {
		size = 1
	}
	eye := center.Add(geom.V(0.9, 1.4, 0.8).Normalize().Scale(size * 1.2))
	return LookAt(eye, center, fovYDeg, w, h)
}
