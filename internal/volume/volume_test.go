package volume

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		f    Format
		want int
		name string
	}{{U8, 1, "u8"}, {U16, 2, "u16"}, {F32, 4, "f32"}}
	for _, c := range cases {
		if got := c.f.Bytes(); got != c.want {
			t.Errorf("%v.Bytes() = %d, want %d", c.f, got, c.want)
		}
		if got := c.f.String(); got != c.name {
			t.Errorf("String() = %q, want %q", got, c.name)
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	for _, f := range []Format{U8, U16, F32} {
		g := New(4, 5, 6, f)
		g.Set(1, 2, 3, 42)
		if got := g.At(1, 2, 3); got != 42 {
			t.Errorf("%v: At = %v, want 42", f, got)
		}
		if got := g.At(0, 0, 0); got != 0 {
			t.Errorf("%v: zero value = %v", f, got)
		}
	}
}

func TestSetClamping(t *testing.T) {
	g := New(2, 2, 2, U8)
	g.Set(0, 0, 0, 300)
	if got := g.At(0, 0, 0); got != 255 {
		t.Errorf("U8 clamp high = %v, want 255", got)
	}
	g.Set(0, 0, 0, -5)
	if got := g.At(0, 0, 0); got != 0 {
		t.Errorf("U8 clamp low = %v, want 0", got)
	}
	g16 := New(2, 2, 2, U16)
	g16.Set(0, 0, 0, 1e9)
	if got := g16.At(0, 0, 0); got != 65535 {
		t.Errorf("U16 clamp high = %v", got)
	}
}

func TestF32RoundTripExact(t *testing.T) {
	g := New(2, 2, 2, F32)
	f := func(v float32) bool {
		if v != v { // NaN won't round-trip comparably
			return true
		}
		g.Set(1, 1, 1, v)
		return g.At(1, 1, 1) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBoundsPanic(t *testing.T) {
	g := New(2, 2, 2, U8)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds At should panic")
		}
	}()
	g.At(2, 0, 0)
}

func TestFillAndMinMax(t *testing.T) {
	g := New(3, 3, 3, U8)
	g.Fill(func(x, y, z int) float32 { return float32(x + y + z) })
	lo, hi := g.MinMax()
	if lo != 0 || hi != 6 {
		t.Errorf("MinMax = %v,%v want 0,6", lo, hi)
	}
	if n := g.DistinctValues(); n != 7 {
		t.Errorf("DistinctValues = %d, want 7", n)
	}
}

func TestIORoundTrip(t *testing.T) {
	for _, f := range []Format{U8, U16, F32} {
		g := New(5, 4, 3, f)
		g.Fill(func(x, y, z int) float32 { return float32(x*100 + y*10 + z) })
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatalf("%v: Write: %v", f, err)
		}
		r, err := Read(&buf)
		if err != nil {
			t.Fatalf("%v: Read: %v", f, err)
		}
		if r.Nx != g.Nx || r.Ny != g.Ny || r.Nz != g.Nz || r.Fmt != g.Fmt {
			t.Fatalf("%v: header mismatch", f)
		}
		if !bytes.Equal(r.data, g.data) {
			t.Errorf("%v: payload mismatch", f)
		}
	}
}

func TestIOBadInput(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Read(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Error("bad magic should fail")
	}
	// Valid header, truncated payload.
	g := New(10, 10, 10, U8)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:100])); err == nil {
		t.Error("truncated payload should fail")
	}
}

func TestFileRoundTrip(t *testing.T) {
	g := Sphere(16)
	path := filepath.Join(t.TempDir(), "v.vol")
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	r, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.data, g.data) {
		t.Error("file round trip mismatch")
	}
}

func TestRMDeterministic(t *testing.T) {
	a := RichtmyerMeshkov(16, 16, 16, 100, 7)
	b := RichtmyerMeshkov(16, 16, 16, 100, 7)
	if !bytes.Equal(a.data, b.data) {
		t.Error("RM generator not deterministic")
	}
	c := RichtmyerMeshkov(16, 16, 16, 100, 8)
	if bytes.Equal(a.data, c.data) {
		t.Error("RM generator ignores seed")
	}
	d := RichtmyerMeshkov(16, 16, 16, 101, 7)
	if bytes.Equal(a.data, d.data) {
		t.Error("RM generator ignores time step")
	}
}

func TestRMStructure(t *testing.T) {
	g := RichtmyerMeshkov(32, 32, 32, 250, 1)
	lo, hi := g.MinMax()
	if lo > 30 || hi < 220 {
		t.Errorf("RM range [%v,%v] too narrow for isovalue sweeps 10..210", lo, hi)
	}
	// Bottom should be heavy gas (high), top light gas (low).
	if g.At(16, 16, 0) < 200 {
		t.Errorf("bottom sample = %v, want heavy gas ≈235", g.At(16, 16, 0))
	}
	if g.At(16, 16, 31) > 50 {
		t.Errorf("top sample = %v, want light gas ≈20", g.At(16, 16, 31))
	}
}

func TestRMMixingGrowsWithTime(t *testing.T) {
	// The turbulent mixing layer must widen over time: count samples that are
	// neither pure phase.
	mixed := func(step int) int {
		g := RichtmyerMeshkov(32, 32, 32, step, 1)
		n := 0
		for z := 0; z < g.Nz; z++ {
			for y := 0; y < g.Ny; y++ {
				for x := 0; x < g.Nx; x++ {
					v := g.At(x, y, z)
					if v > 25 && v < 230 {
						n++
					}
				}
			}
		}
		return n
	}
	early, late := mixed(20), mixed(250)
	if late <= early {
		t.Errorf("mixing layer did not grow: step20=%d step250=%d", early, late)
	}
}

func TestRMStepRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range step should panic")
		}
	}()
	RichtmyerMeshkov(8, 8, 8, RMSteps, 1)
}

func TestSphereIsCentered(t *testing.T) {
	g := Sphere(17)
	c := g.At(8, 8, 8)
	if c < 250 {
		t.Errorf("center value = %v, want ≈255", c)
	}
	if corner := g.At(0, 0, 0); corner > 5 {
		t.Errorf("corner value = %v, want ≈0", corner)
	}
	// Radial monotonicity along the +x axis.
	prev := c
	for x := 9; x < 17; x++ {
		v := g.At(x, 8, 8)
		if v > prev {
			t.Fatalf("sphere field not radially decreasing at x=%d", x)
		}
		prev = v
	}
}

func TestTorusRange(t *testing.T) {
	g := Torus(24)
	lo, hi := g.MinMax()
	if lo != 0 || hi < 200 {
		t.Errorf("torus range [%v,%v]", lo, hi)
	}
}

func TestConstant(t *testing.T) {
	g := Constant(4, 4, 4, U8, 7)
	lo, hi := g.MinMax()
	if lo != 7 || hi != 7 {
		t.Errorf("constant grid MinMax = %v,%v", lo, hi)
	}
	if n := g.DistinctValues(); n != 1 {
		t.Errorf("DistinctValues = %d", n)
	}
}

func TestTable1StandIns(t *testing.T) {
	const n = 24
	u8set := BunnyLike(n, 1)
	if u8set.Fmt != U8 {
		t.Error("BunnyLike should be U8")
	}
	for name, g := range map[string]*Grid{
		"MRBrainLike": MRBrainLike(n, 1),
		"CTHeadLike":  CTHeadLike(n, 1),
	} {
		if g.Fmt != U16 {
			t.Errorf("%s should be U16", name)
		}
		if d := g.DistinctValues(); d < 50 {
			t.Errorf("%s has only %d distinct values", name, d)
		}
	}
	p := PressureLike(n, 1)
	v := VelocityLike(n, 1)
	if p.Fmt != F32 || v.Fmt != F32 {
		t.Error("Pressure/Velocity should be F32")
	}
	// N ≈ n regime: almost every sample distinct.
	if d := p.DistinctValues(); float64(d) < 0.9*float64(p.Samples()) {
		t.Errorf("PressureLike distinct=%d of %d, want ≈all", d, p.Samples())
	}
}

func TestValueNoiseContinuity(t *testing.T) {
	// Noise must be continuous: small coordinate deltas give small value
	// deltas.
	const eps = 1e-3
	for i := 0; i < 100; i++ {
		x := float32(i) * 0.137
		a := valueNoise(x, 1.5, 2.5, 9)
		b := valueNoise(x+eps, 1.5, 2.5, 9)
		if math.Abs(float64(a-b)) > 0.01 {
			t.Fatalf("noise jump at x=%v: %v vs %v", x, a, b)
		}
	}
}

func TestValueNoiseRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		v := fbm(float32(i)*0.31, float32(i)*0.17, float32(i)*0.07, 4, 3)
		if v < 0 || v >= 1 {
			t.Fatalf("fbm out of range: %v", v)
		}
	}
}

func TestFloor32(t *testing.T) {
	cases := []struct {
		in   float32
		want int32
	}{{1.5, 1}, {-1.5, -2}, {0, 0}, {-0.1, -1}, {2, 2}}
	for _, c := range cases {
		if got := floor32(c.in); got != c.want {
			t.Errorf("floor32(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRawRoundTrip(t *testing.T) {
	for _, f := range []Format{U8, U16, F32} {
		g := New(6, 5, 4, f)
		g.Fill(func(x, y, z int) float32 { return float32(x*25 + y*5 + z) })
		path := filepath.Join(t.TempDir(), "v.raw")
		if err := g.WriteRaw(path); err != nil {
			t.Fatal(err)
		}
		r, err := ReadRaw(path, 6, 5, 4, f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.data, g.data) {
			t.Errorf("%v: raw round trip mismatch", f)
		}
	}
}

func TestReadRawErrors(t *testing.T) {
	g := Sphere(8)
	path := filepath.Join(t.TempDir(), "v.raw")
	if err := g.WriteRaw(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRaw(path, 9, 8, 8, U8); err == nil {
		t.Error("wrong dimensions should fail")
	}
	if _, err := ReadRaw(path, 8, 8, 8, U16); err == nil {
		t.Error("wrong format should fail")
	}
	if _, err := ReadRaw(path, 0, 8, 8, U8); err == nil {
		t.Error("zero dimension should fail")
	}
	if _, err := ReadRaw(filepath.Join(t.TempDir(), "nope"), 8, 8, 8, U8); err == nil {
		t.Error("missing file should fail")
	}
}
