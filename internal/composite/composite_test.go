package composite

import (
	"testing"
	"testing/quick"

	"repro/internal/render"
	"repro/internal/rng"
)

func fbWith(w, h int, x, y int, depth float32, c render.RGB) *render.Framebuffer {
	fb := render.NewFramebuffer(w, h)
	// Use DrawMesh-free direct write via a tiny helper: Clear + manual set is
	// unexported, so paint through the public surface: a 1-pixel "mesh" is
	// overkill — instead write the planes directly.
	fb.Color[y*w+x] = c
	fb.Depth[y*w+x] = depth
	return fb
}

func TestZCompositeNearestWins(t *testing.T) {
	a := fbWith(4, 4, 1, 1, 5, render.RGB{R: 255})
	b := fbWith(4, 4, 1, 1, 3, render.RGB{G: 255})
	out, st, err := ZComposite(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(1, 1) != (render.RGB{G: 255}) {
		t.Errorf("pixel = %+v, want green (nearer)", out.At(1, 1))
	}
	if out.Depth[1*out.W+1] != 3 {
		t.Errorf("depth = %v", out.Depth[1*out.W+1])
	}
	if st.Sources != 2 || st.BytesMoved != 2*a.SizeBytes() {
		t.Errorf("stats = %+v", st)
	}
}

func TestZCompositeDisjointRegions(t *testing.T) {
	a := fbWith(4, 4, 0, 0, 1, render.RGB{R: 9})
	b := fbWith(4, 4, 3, 3, 1, render.RGB{B: 9})
	out, _, err := ZComposite(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0) != (render.RGB{R: 9}) || out.At(3, 3) != (render.RGB{B: 9}) {
		t.Error("disjoint fragments lost")
	}
	if out.CoveredPixels() != 2 {
		t.Errorf("covered = %d", out.CoveredPixels())
	}
}

func TestZCompositeOrderIndependent(t *testing.T) {
	a := fbWith(4, 4, 2, 2, 7, render.RGB{R: 1})
	b := fbWith(4, 4, 2, 2, 2, render.RGB{R: 2})
	c := fbWith(4, 4, 2, 2, 4, render.RGB{R: 3})
	x, _, _ := ZComposite(a, b, c)
	y, _, _ := ZComposite(c, a, b)
	if x.At(2, 2) != y.At(2, 2) {
		t.Error("composite depends on source order")
	}
	if x.At(2, 2) != (render.RGB{R: 2}) {
		t.Errorf("pixel = %+v", x.At(2, 2))
	}
}

func TestZCompositeErrors(t *testing.T) {
	if _, _, err := ZComposite(); err == nil {
		t.Error("no sources should fail")
	}
	a := render.NewFramebuffer(4, 4)
	b := render.NewFramebuffer(8, 4)
	if _, _, err := ZComposite(a, b); err == nil {
		t.Error("mismatched sizes should fail")
	}
}

func TestSplitAssembleRoundTrip(t *testing.T) {
	fb := render.NewFramebuffer(8, 8)
	for i := range fb.Color {
		fb.Color[i] = render.RGB{R: uint8(i)}
		fb.Depth[i] = float32(i)
	}
	tiles, err := SplitTiles(fb, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiles) != 4 || tiles[0].FB.W != 4 || tiles[0].FB.H != 4 {
		t.Fatalf("tiles = %d of %dx%d", len(tiles), tiles[0].FB.W, tiles[0].FB.H)
	}
	back, err := Assemble(tiles, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fb.Color {
		if back.Color[i] != fb.Color[i] || back.Depth[i] != fb.Depth[i] {
			t.Fatalf("pixel %d lost in round trip", i)
		}
	}
}

func TestSplitTilesBadGrid(t *testing.T) {
	fb := render.NewFramebuffer(9, 9)
	if _, err := SplitTiles(fb, 2, 2); err == nil {
		t.Error("non-divisible split should fail")
	}
	if _, err := SplitTiles(fb, 0, 1); err == nil {
		t.Error("zero tiles should fail")
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := Assemble(nil, 2, 2); err == nil {
		t.Error("no tiles should fail")
	}
	fb := render.NewFramebuffer(8, 8)
	tiles, _ := SplitTiles(fb, 2, 2)
	tiles[0].X = 5
	if _, err := Assemble(tiles, 2, 2); err == nil {
		t.Error("out-of-range tile should fail")
	}
}

func TestSortLast(t *testing.T) {
	a := fbWith(8, 8, 1, 1, 2, render.RGB{R: 50})
	b := fbWith(8, 8, 6, 6, 2, render.RGB{G: 50})
	tiles, st, err := SortLast([]*render.Framebuffer{a, b}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesMoved != 2*a.SizeBytes() {
		t.Errorf("bytes moved = %d", st.BytesMoved)
	}
	// Pixel (1,1) lands in tile (0,0); pixel (6,6) in tile (1,1).
	if tiles[0].FB.At(1, 1) != (render.RGB{R: 50}) {
		t.Error("tile (0,0) missing its fragment")
	}
	if tiles[3].FB.At(2, 2) != (render.RGB{G: 50}) {
		t.Error("tile (1,1) missing its fragment")
	}
}

func TestPropertyCompositeAssociativeCommutative(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		mk := func() *render.Framebuffer {
			fb := render.NewFramebuffer(8, 8)
			for i := 0; i < 20; i++ {
				p := r.Intn(64)
				fb.Depth[p] = float32(r.Float64() * 100)
				fb.Color[p] = render.RGB{R: uint8(r.Intn(256))}
			}
			return fb
		}
		a, b, c := mk(), mk(), mk()
		// ((a⊕b)⊕c) == (a⊕(b⊕c)) == (c⊕a⊕b)
		ab, _, _ := ZComposite(a, b)
		abc1, _, _ := ZComposite(ab, c)
		bc, _, _ := ZComposite(b, c)
		abc2, _, _ := ZComposite(a, bc)
		abc3, _, _ := ZComposite(c, a, b)
		for i := range abc1.Color {
			if abc1.Color[i] != abc2.Color[i] || abc1.Color[i] != abc3.Color[i] {
				return false
			}
			if abc1.Depth[i] != abc2.Depth[i] || abc1.Depth[i] != abc3.Depth[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertySplitAssembleIdentity(t *testing.T) {
	prop := func(seed uint64, txRaw, tyRaw uint8) bool {
		tx := int(txRaw)%3 + 1
		ty := int(tyRaw)%3 + 1
		w, h := 12*tx, 12*ty
		r := rng.New(seed)
		fb := render.NewFramebuffer(w, h)
		for i := range fb.Color {
			fb.Color[i] = render.RGB{R: uint8(r.Intn(256)), G: uint8(r.Intn(256))}
			fb.Depth[i] = float32(r.Float64())
		}
		tiles, err := SplitTiles(fb, tx, ty)
		if err != nil {
			return false
		}
		back, err := Assemble(tiles, tx, ty)
		if err != nil {
			return false
		}
		for i := range fb.Color {
			if back.Color[i] != fb.Color[i] || back.Depth[i] != fb.Depth[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
