package render

import (
	"bytes"
	"image/png"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/march"
	"repro/internal/volume"
)

func TestFramebufferClear(t *testing.T) {
	fb := NewFramebuffer(8, 4)
	if fb.CoveredPixels() != 0 {
		t.Error("fresh framebuffer should be uncovered")
	}
	fb.set(3, 2, 1.5, RGB{1, 2, 3})
	if fb.At(3, 2) != (RGB{1, 2, 3}) || fb.Depth[2*fb.W+3] != 1.5 {
		t.Error("set/At mismatch")
	}
	if fb.CoveredPixels() != 1 {
		t.Error("covered count wrong")
	}
	fb.Clear(RGB{9, 9, 9})
	if fb.At(3, 2) != (RGB{9, 9, 9}) || !math.IsInf(float64(fb.Depth[2*fb.W+3]), 1) {
		t.Error("clear failed")
	}
}

func TestZBufferKeepsNearest(t *testing.T) {
	fb := NewFramebuffer(2, 2)
	fb.set(0, 0, 5, RGB{R: 1})
	fb.set(0, 0, 3, RGB{R: 2}) // nearer: wins
	fb.set(0, 0, 4, RGB{R: 3}) // farther than current: loses
	if fb.At(0, 0) != (RGB{R: 2}) || fb.Depth[0] != 3 {
		t.Errorf("z-test wrong: %+v depth %v", fb.At(0, 0), fb.Depth[0])
	}
}

func TestBadFramebufferSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size framebuffer should panic")
		}
	}()
	NewFramebuffer(0, 10)
}

func TestCameraProjectCenter(t *testing.T) {
	cam := LookAt(geom.V(0, -10, 0), geom.V(0, 0, 0), 60, 200, 100)
	x, y, d, ok := cam.Project(geom.V(0, 0, 0))
	if !ok {
		t.Fatal("target not visible")
	}
	if math.Abs(float64(x-100)) > 0.5 || math.Abs(float64(y-50)) > 0.5 {
		t.Errorf("target projects to (%v,%v), want viewport center", x, y)
	}
	if math.Abs(float64(d-10)) > 1e-3 {
		t.Errorf("depth = %v, want 10", d)
	}
}

func TestCameraBehind(t *testing.T) {
	cam := LookAt(geom.V(0, -10, 0), geom.V(0, 0, 0), 60, 100, 100)
	if _, _, _, ok := cam.Project(geom.V(0, -20, 0)); ok {
		t.Error("point behind camera should not project")
	}
}

func TestCameraDegenerateUp(t *testing.T) {
	// Looking straight down the Z axis with Up = +Z must not blow up.
	cam := LookAt(geom.V(0, 0, 10), geom.V(0, 0, 0), 60, 100, 100)
	if _, _, _, ok := cam.Project(geom.V(1, 1, 0)); !ok {
		t.Error("degenerate-up camera cannot see the scene")
	}
}

func TestCameraDepthOrder(t *testing.T) {
	cam := LookAt(geom.V(0, -10, 0), geom.V(0, 0, 0), 60, 100, 100)
	_, _, d1, _ := cam.Project(geom.V(0, 0, 0))
	_, _, d2, _ := cam.Project(geom.V(0, 5, 0))
	if d2 <= d1 {
		t.Error("farther point should have larger depth")
	}
}

func TestDrawTriangleCoversPixels(t *testing.T) {
	fb := NewFramebuffer(64, 64)
	cam := LookAt(geom.V(0, -10, 0), geom.V(0, 0, 0), 60, 64, 64)
	mesh := &geom.Mesh{}
	mesh.Append(geom.Triangle{A: geom.V(-2, 0, -2), B: geom.V(2, 0, -2), C: geom.V(0, 0, 2)})
	drawn := DrawMesh(fb, cam, mesh, DefaultShading())
	if drawn != 1 {
		t.Fatalf("drawn = %d", drawn)
	}
	if fb.CoveredPixels() < 50 {
		t.Errorf("triangle covered only %d pixels", fb.CoveredPixels())
	}
}

func TestOcclusion(t *testing.T) {
	// A near triangle must hide a far one.
	fb := NewFramebuffer(64, 64)
	cam := LookAt(geom.V(0, -10, 0), geom.V(0, 0, 0), 60, 64, 64)
	far := &geom.Mesh{}
	far.Append(geom.Triangle{A: geom.V(-3, 2, -3), B: geom.V(3, 2, -3), C: geom.V(0, 2, 3)})
	near := &geom.Mesh{}
	near.Append(geom.Triangle{A: geom.V(-3, -2, -3), B: geom.V(3, -2, -3), C: geom.V(0, -2, 3)})

	DrawMesh(fb, cam, far, Shading{Base: RGB{255, 0, 0}, Ambient: 1})
	DrawMesh(fb, cam, near, Shading{Base: RGB{0, 255, 0}, Ambient: 1})
	c := fb.At(32, 32)
	if c.G == 0 || c.R != 0 {
		t.Errorf("center pixel = %+v, want the near (green) triangle", c)
	}
	// Order independence: drawing near first must give the same result.
	fb2 := NewFramebuffer(64, 64)
	DrawMesh(fb2, cam, near, Shading{Base: RGB{0, 255, 0}, Ambient: 1})
	DrawMesh(fb2, cam, far, Shading{Base: RGB{255, 0, 0}, Ambient: 1})
	if fb2.At(32, 32) != c {
		t.Error("z-buffering is draw-order dependent")
	}
}

func TestDegenerateTriangleSkipped(t *testing.T) {
	fb := NewFramebuffer(32, 32)
	cam := LookAt(geom.V(0, -10, 0), geom.V(0, 0, 0), 60, 32, 32)
	mesh := &geom.Mesh{}
	mesh.Append(geom.Triangle{A: geom.V(0, 0, 0), B: geom.V(1, 0, 0), C: geom.V(2, 0, 0)})
	if drawn := DrawMesh(fb, cam, mesh, DefaultShading()); drawn != 0 {
		t.Errorf("degenerate triangle drawn (%d)", drawn)
	}
}

func TestOffscreenTriangleClipped(t *testing.T) {
	fb := NewFramebuffer(32, 32)
	cam := LookAt(geom.V(0, -10, 0), geom.V(0, 0, 0), 60, 32, 32)
	mesh := &geom.Mesh{}
	mesh.Append(geom.Triangle{A: geom.V(100, 0, 100), B: geom.V(101, 0, 100), C: geom.V(100, 0, 101)})
	DrawMesh(fb, cam, mesh, DefaultShading())
	if fb.CoveredPixels() != 0 {
		t.Error("offscreen triangle left fragments")
	}
}

func TestShadingVariesWithOrientation(t *testing.T) {
	fb := NewFramebuffer(64, 64)
	cam := LookAt(geom.V(0, -10, 0), geom.V(0, 0, 0), 60, 64, 64)
	sh := Shading{Base: RGB{200, 200, 200}, Ambient: 0.1, Light: geom.V(0, -1, 0)}
	facing := &geom.Mesh{}
	facing.Append(geom.Triangle{A: geom.V(-2, 0, -2), B: geom.V(2, 0, -2), C: geom.V(0, 0, 2)})
	DrawMesh(fb, cam, facing, sh)
	bright := fb.At(32, 32)

	fb2 := NewFramebuffer(64, 64)
	// Same triangle tilted nearly edge-on to the light.
	tilted := &geom.Mesh{}
	tilted.Append(geom.Triangle{A: geom.V(-2, -2, -2), B: geom.V(2, -2, -2), C: geom.V(0, 2, 2.2)})
	DrawMesh(fb2, cam, tilted, sh)
	dim := fb2.At(32, 32)
	if dim.R >= bright.R {
		t.Errorf("tilted triangle (%d) not dimmer than facing (%d)", dim.R, bright.R)
	}
}

func TestRenderSphereSilhouette(t *testing.T) {
	// Render an extracted sphere; coverage should be roughly the projected
	// disc area and the image horizontally symmetric-ish.
	g := volume.Sphere(24)
	mesh, _ := march.Grid(g, 128)
	cam := FitMesh(mesh.Bounds(), 45, 128, 128)
	fb := NewFramebuffer(128, 128)
	DrawMesh(fb, cam, mesh, DefaultShading())
	cov := fb.CoveredPixels()
	if cov < 1000 || cov > 10000 {
		t.Errorf("sphere covers %d of 16384 pixels", cov)
	}
}

func TestWritePPM(t *testing.T) {
	fb := NewFramebuffer(3, 2)
	fb.set(0, 0, 1, RGB{10, 20, 30})
	var buf bytes.Buffer
	if err := fb.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "P6\n3 2\n255\n") {
		t.Errorf("PPM header = %q", s[:12])
	}
	if buf.Len() != len("P6\n3 2\n255\n")+3*2*3 {
		t.Errorf("PPM size = %d", buf.Len())
	}
	body := buf.Bytes()[len("P6\n3 2\n255\n"):]
	if body[0] != 10 || body[1] != 20 || body[2] != 30 {
		t.Errorf("first pixel = %v", body[:3])
	}
}

func TestWritePPMFile(t *testing.T) {
	fb := NewFramebuffer(4, 4)
	path := t.TempDir() + "/out.ppm"
	if err := fb.WritePPMFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestNodeColorsDistinct(t *testing.T) {
	seen := map[RGB]bool{}
	for i := 0; i < 8; i++ {
		c := NodeColor(i)
		if seen[c] {
			t.Errorf("node color %d duplicates an earlier node", i)
		}
		seen[c] = true
	}
	if NodeColor(8) != NodeColor(0) {
		t.Error("palette should wrap")
	}
}

func TestWritePNG(t *testing.T) {
	fb := NewFramebuffer(8, 8)
	fb.set(2, 3, 1, RGB{200, 100, 50})
	var buf bytes.Buffer
	if err := fb.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 8 || img.Bounds().Dy() != 8 {
		t.Errorf("PNG bounds %v", img.Bounds())
	}
	r, g, b, _ := img.At(2, 3).RGBA()
	if uint8(r>>8) != 200 || uint8(g>>8) != 100 || uint8(b>>8) != 50 {
		t.Errorf("pixel = %d,%d,%d", r>>8, g>>8, b>>8)
	}
}

func TestWriteImageFile(t *testing.T) {
	fb := NewFramebuffer(4, 4)
	dir := t.TempDir()
	if err := fb.WriteImageFile(dir + "/a.png"); err != nil {
		t.Error(err)
	}
	if err := fb.WriteImageFile(dir + "/a.ppm"); err != nil {
		t.Error(err)
	}
}
