package metacell

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/volume"
)

func TestLayoutDimensions(t *testing.T) {
	// 17 samples with span 9 → 16 cells → exactly 2 metacells per axis.
	g := volume.New(17, 17, 17, volume.U8)
	l := NewLayout(g, 9)
	if l.Mx != 2 || l.My != 2 || l.Mz != 2 {
		t.Errorf("layout = %d×%d×%d, want 2×2×2", l.Mx, l.My, l.Mz)
	}
	if l.Count() != 8 {
		t.Errorf("Count = %d", l.Count())
	}
}

func TestLayoutNonDivisible(t *testing.T) {
	// 20 samples → 19 cells → ceil(19/8) = 3 metacells per axis.
	g := volume.New(20, 20, 20, volume.U8)
	l := NewLayout(g, 9)
	if l.Mx != 3 {
		t.Errorf("Mx = %d, want 3", l.Mx)
	}
}

func TestRecordSizeMatchesPaper(t *testing.T) {
	// The paper's RM metacells: 4-byte ID + 1-byte vmin + 9³ one-byte samples
	// = 734 bytes.
	g := volume.New(17, 17, 17, volume.U8)
	l := NewLayout(g, 9)
	if got := l.RecordSize(); got != 734 {
		t.Errorf("RecordSize = %d, want 734 (paper)", got)
	}
}

func TestIDCoordsRoundTrip(t *testing.T) {
	g := volume.New(100, 80, 60, volume.U8)
	l := NewLayout(g, 9)
	f := func(mx, my, mz uint8) bool {
		x, y, z := int(mx)%l.Mx, int(my)%l.My, int(mz)%l.Mz
		gx, gy, gz := l.Coords(l.ID(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOrigin(t *testing.T) {
	g := volume.New(33, 33, 33, volume.U8)
	l := NewLayout(g, 9)
	x, y, z := l.Origin(l.ID(1, 2, 3))
	if x != 8 || y != 16 || z != 24 {
		t.Errorf("Origin = (%d,%d,%d), want (8,16,24)", x, y, z)
	}
}

func TestExtractDropsConstant(t *testing.T) {
	g := volume.Constant(17, 17, 17, volume.U8, 42)
	_, cells := Extract(g, 9)
	if len(cells) != 0 {
		t.Errorf("constant volume produced %d metacells, want 0", len(cells))
	}
}

func TestExtractKeepsVarying(t *testing.T) {
	g := volume.Sphere(17)
	l, cells := Extract(g, 9)
	if len(cells) != l.Count() {
		t.Errorf("sphere should keep all %d metacells, got %d", l.Count(), len(cells))
	}
	for _, c := range cells {
		if c.VMin >= c.VMax {
			t.Fatalf("metacell %d has vmin %v >= vmax %v", c.ID, c.VMin, c.VMax)
		}
		if len(c.Record) != l.RecordSize() {
			t.Fatalf("record size %d", len(c.Record))
		}
	}
}

func TestExtractIntervalsCorrect(t *testing.T) {
	// Field = x+y+z: metacell (0,0,0) covers samples 0..8 per axis →
	// interval [0, 24]; metacell (1,1,1) covers 8..16 → [24, 48].
	g := volume.New(17, 17, 17, volume.U8)
	g.Fill(func(x, y, z int) float32 { return float32(x + y + z) })
	l, cells := Extract(g, 9)
	byID := make(map[uint32]Cell)
	for _, c := range cells {
		byID[c.ID] = c
	}
	c0 := byID[l.ID(0, 0, 0)]
	if c0.VMin != 0 || c0.VMax != 24 {
		t.Errorf("metacell(0,0,0) interval [%v,%v], want [0,24]", c0.VMin, c0.VMax)
	}
	c1 := byID[l.ID(1, 1, 1)]
	if c1.VMin != 24 || c1.VMax != 48 {
		t.Errorf("metacell(1,1,1) interval [%v,%v], want [24,48]", c1.VMin, c1.VMax)
	}
}

func TestSharedBoundarySample(t *testing.T) {
	// Adjacent metacells must share the boundary sample layer: the max of
	// metacell 0 equals the min of metacell 1 for a monotone x field.
	g := volume.New(17, 5, 5, volume.U8)
	g.Fill(func(x, y, z int) float32 { return float32(x) })
	l, cells := Extract(g, 9)
	if l.Mx != 2 {
		t.Fatalf("Mx = %d", l.Mx)
	}
	byID := make(map[uint32]Cell)
	for _, c := range cells {
		byID[c.ID] = c
	}
	left, right := byID[l.ID(0, 0, 0)], byID[l.ID(1, 0, 0)]
	if left.VMax != right.VMin {
		t.Errorf("boundary not shared: left vmax %v, right vmin %v", left.VMax, right.VMin)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, f := range []volume.Format{volume.U8, volume.U16, volume.F32} {
		g := volume.New(17, 17, 17, f)
		g.Fill(func(x, y, z int) float32 { return float32(x*31+y*17+z) / 3 })
		l, cells := Extract(g, 9)
		if len(cells) == 0 {
			t.Fatalf("%v: no cells", f)
		}
		c := cells[len(cells)/2]
		m, err := DecodeRecord(l, c.Record)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if m.ID != c.ID {
			t.Errorf("%v: ID %d != %d", f, m.ID, c.ID)
		}
		if m.VMin != c.VMin {
			t.Errorf("%v: VMin %v != %v", f, m.VMin, c.VMin)
		}
		if len(m.Samples) != 729 {
			t.Fatalf("%v: %d samples", f, len(m.Samples))
		}
		// Spot-check samples against the source grid.
		ox, oy, oz := l.Origin(c.ID)
		for _, pt := range [][3]int{{0, 0, 0}, {8, 8, 8}, {3, 5, 7}} {
			want := g.At(ox+pt[0], oy+pt[1], oz+pt[2])
			got := m.Samples[(pt[2]*9+pt[1])*9+pt[0]]
			if got != want {
				t.Errorf("%v: sample %v = %v, want %v", f, pt, got, want)
			}
		}
	}
}

func TestVMinIDOfRecord(t *testing.T) {
	g := volume.Sphere(17)
	l, cells := Extract(g, 9)
	for _, c := range cells {
		if got := VMinOfRecord(l, c.Record); got != c.VMin {
			t.Fatalf("VMinOfRecord = %v, want %v", got, c.VMin)
		}
		if got := IDOfRecord(c.Record); got != c.ID {
			t.Fatalf("IDOfRecord = %d, want %d", got, c.ID)
		}
	}
}

func TestDecodeRecordIntoReuse(t *testing.T) {
	g := volume.Sphere(17)
	l, cells := Extract(g, 9)
	var m Meta
	for _, c := range cells[:4] {
		if err := DecodeRecordInto(l, c.Record, &m); err != nil {
			t.Fatal(err)
		}
		if m.ID != c.ID {
			t.Fatalf("ID mismatch after reuse")
		}
	}
	if err := DecodeRecordInto(l, []byte{1, 2, 3}, &m); err == nil {
		t.Error("short record should fail")
	}
	// A record naming a metacell outside the grid is rejected, not decoded
	// into a metacell the triangulator would silently drop.
	stray := append([]byte(nil), cells[0].Record...)
	binary.LittleEndian.PutUint32(stray, uint32(l.Count()))
	before := m.ID
	if err := DecodeRecordInto(l, stray, &m); err == nil || m.ID != before {
		t.Errorf("record for metacell %d of %d: err = %v, Meta.ID %d -> %d", l.Count(), l.Count(), err, before, m.ID)
	}
}

func TestExtractBoundaryClampProducesNoSpuriousIntervals(t *testing.T) {
	// A 12-sample axis with span 9 yields a truncated second metacell whose
	// padding replicates the boundary; for a monotone field its interval must
	// not exceed the true field range.
	g := volume.New(12, 12, 12, volume.U8)
	g.Fill(func(x, y, z int) float32 { return float32(x + y + z) })
	_, cells := Extract(g, 9)
	for _, c := range cells {
		if c.VMax > 33 { // max field value = 11*3
			t.Errorf("metacell %d vmax %v exceeds field max 33", c.ID, c.VMax)
		}
	}
}

func TestRMDropsAboutHalf(t *testing.T) {
	// The paper reports ≈50% of RM metacells are constant at step 250. Allow
	// a generous band for the synthetic stand-in.
	g := volume.RichtmyerMeshkov(64, 64, 60, 250, 1)
	l, cells := Extract(g, 9)
	frac := float64(len(cells)) / float64(l.Count())
	if frac < 0.2 || frac > 0.85 {
		t.Errorf("non-constant fraction = %.2f, want mid-range (paper ≈0.5)", frac)
	}
}

func TestSpanTooSmallPanics(t *testing.T) {
	g := volume.New(8, 8, 8, volume.U8)
	defer func() {
		if recover() == nil {
			t.Error("span 1 should panic")
		}
	}()
	NewLayout(g, 1)
}
