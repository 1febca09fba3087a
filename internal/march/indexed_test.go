package march

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/metacell"
	"repro/internal/rng"
	"repro/internal/volume"
)

// metaFromSamples builds a single-metacell layout and decoded metacell for a
// span³ sample block (volume sized so no cell is truncated).
func metaFromSamples(span int, samples []float32) (metacell.Layout, metacell.Meta) {
	l := metacell.Layout{Span: span, Fmt: volume.F32, Nx: span, Ny: span, Nz: span, Mx: 1, My: 1, Mz: 1}
	return l, metacell.Meta{ID: 0, Samples: samples}
}

// TestIndexedMatchesSoupAllConfigs drives every one of the 256 corner
// configurations through a minimal 2-sample metacell and checks the welded
// mesh expands byte-identically to the soup baseline.
func TestIndexedMatchesSoupAllConfigs(t *testing.T) {
	for cfg := 0; cfg < 256; cfg++ {
		samples := make([]float32, 8)
		for c := 0; c < 8; c++ {
			if cfg&(1<<c) != 0 {
				samples[c] = 200
			} else {
				samples[c] = 50
			}
		}
		l, m := metaFromSamples(2, samples)
		const iso = 125
		var soup geom.Mesh
		wantActive := Metacell(l, &m, iso, &soup)

		var w Welder
		var im geom.Mesh
		gotActive := w.Metacell(l, &m, iso, &im)
		if gotActive != wantActive {
			t.Fatalf("config %08b: active %d, soup baseline %d", cfg, gotActive, wantActive)
		}
		if !slices.Equal(im.ExpandSoup(), soup.ExpandSoup()) {
			t.Fatalf("config %08b: expanded soup not byte-identical", cfg)
		}
	}
}

// TestIndexedMatchesSoupRandomMetacells is the welding equivalence property:
// for random span-9 metacells and isovalues, one reused Welder must produce
// (via ExpandSoup) the exact bytes of the per-cell soup baseline.
func TestIndexedMatchesSoupRandomMetacells(t *testing.T) {
	var w Welder // reused across trials, like a pipeline worker's
	var im geom.Mesh
	prop := func(seed uint64, isoRaw uint8) bool {
		r := rng.New(seed)
		const span = 9
		samples := make([]float32, span*span*span)
		for i := range samples {
			samples[i] = float32(r.Intn(256))
		}
		l, m := metaFromSamples(span, samples)
		iso := float32(isoRaw)

		var soup geom.Mesh
		wantActive := Metacell(l, &m, iso, &soup)
		im.Reset()
		gotActive := w.Metacell(l, &m, iso, &im)
		return gotActive == wantActive && slices.Equal(im.ExpandSoup(), soup.ExpandSoup())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIndexedMatchesSoupTruncatedMetacell checks equivalence on boundary
// metacells whose cells are clipped by the volume extent.
func TestIndexedMatchesSoupTruncatedMetacell(t *testing.T) {
	g := volume.Sphere(12) // 12³ with span 9 → truncated edge metacells
	l, cells := metacell.Extract(g, 9)
	var w Welder
	for _, c := range cells {
		m, err := metacell.DecodeRecord(l, c.Record)
		if err != nil {
			t.Fatal(err)
		}
		for _, iso := range []float32{60, 128, 200} {
			var soup geom.Mesh
			wantActive := Metacell(l, &m, iso, &soup)
			var im geom.Mesh
			gotActive := w.Metacell(l, &m, iso, &im)
			if gotActive != wantActive {
				t.Fatalf("metacell %d iso %v: active %d, want %d", c.ID, iso, gotActive, wantActive)
			}
			if !slices.Equal(im.ExpandSoup(), soup.ExpandSoup()) {
				t.Fatalf("metacell %d iso %v: expanded soup differs", c.ID, iso)
			}
		}
	}
}

// TestWeldedSharesVertices is the manifold check: within a metacell the weld
// must be maximal per edge — a crossing coordinate appears once per cut edge,
// so triangles in adjacent cells genuinely share vertices instead of
// duplicating them. Coordinate-level duplicates are allowed only at lattice
// corners, where the isovalue hits a sample exactly and several distinct
// edges interpolate to the same corner point.
func TestWeldedSharesVertices(t *testing.T) {
	g := volume.RichtmyerMeshkov(17, 17, 17, 250, 3)
	l, cells := metacell.Extract(g, 9)
	var w Welder
	checkedShared := false
	for _, c := range cells {
		m, err := metacell.DecodeRecord(l, c.Record)
		if err != nil {
			t.Fatal(err)
		}
		iso := (c.VMin + c.VMax) / 2
		var im geom.Mesh
		w.Metacell(l, &m, iso, &im)
		seen := make(map[geom.Vec3]struct{}, len(im.Verts))
		for _, v := range im.Verts {
			if _, dup := seen[v]; dup {
				onCorner := v.X == float32(int(v.X)) && v.Y == float32(int(v.Y)) && v.Z == float32(int(v.Z))
				if !onCorner {
					t.Fatalf("metacell %d: vertex %v duplicated in welded mesh", c.ID, v)
				}
				continue
			}
			seen[v] = struct{}{}
		}
		// Count vertex references: interior vertices must be shared by
		// multiple triangles (the point of welding).
		refs := make([]int, len(im.Verts))
		for _, id := range im.Idx {
			refs[id]++
		}
		for _, n := range refs {
			if n > 1 {
				checkedShared = true
			}
		}
	}
	if !checkedShared {
		t.Fatal("no shared vertices found anywhere; welding is not welding")
	}
}

// TestWelderReuseAcrossSpans checks a single Welder survives layout changes
// (its scratch resizes) without corrupting results.
func TestWelderReuseAcrossSpans(t *testing.T) {
	var w Welder
	for _, span := range []int{5, 9, 17} {
		g := volume.Sphere(2*span - 1)
		l, cells := metacell.Extract(g, span)
		for _, c := range cells {
			m, err := metacell.DecodeRecord(l, c.Record)
			if err != nil {
				t.Fatal(err)
			}
			var soup geom.Mesh
			Metacell(l, &m, 128, &soup)
			var im geom.Mesh
			w.Metacell(l, &m, 128, &im)
			if !slices.Equal(im.ExpandSoup(), soup.ExpandSoup()) {
				t.Fatalf("span %d metacell %d: expanded soup differs", span, c.ID)
			}
		}
	}
}

// TestWelderRefusesWideSpan: a layout wider than metacell.MaxSpan, whose
// sample rows do not fit one mask word, is an error from Record and a panic
// from Metacell — never a wrong mesh — and leaves the mesh untouched.
func TestWelderRefusesWideSpan(t *testing.T) {
	const span = metacell.MaxSpan + 1
	l := metacell.Layout{Span: span, Fmt: volume.U8, Nx: span, Ny: span, Nz: span, Mx: 1, My: 1, Mz: 1}
	rec := make([]byte, l.RecordSize())
	for i := range rec[5:] {
		rec[5+i] = byte(i * 37)
	}
	var w Welder
	var out geom.Mesh
	if n, err := w.Record(l, rec, 128, &out); err == nil || n != 0 || out.Len() != 0 || len(out.Verts) != 0 {
		t.Errorf("span %d: Record = %d cells, error %v, %d triangles; want a refusal", span, n, err, out.Len())
	}
	defer func() {
		if recover() == nil {
			t.Errorf("span %d: Metacell did not panic", span)
		}
	}()
	m := metacell.Meta{Samples: make([]float32, span*span*span)}
	w.Metacell(l, &m, 128, &out)
}

// TestWelderZeroAllocSteadyState is the march-level allocation gate: after
// warmup, welding a metacell into a pre-grown indexed mesh allocates
// nothing. (The pipeline-level gate lives in cluster.)
func TestWelderZeroAllocSteadyState(t *testing.T) {
	g := volume.RichtmyerMeshkov(33, 33, 30, 250, 1)
	l, cells := metacell.Extract(g, 9)
	var w Welder
	var im geom.Mesh
	iso := float32(128)
	for _, c := range cells { // warmup: size welder scratch and mesh buffers
		m, err := metacell.DecodeRecord(l, c.Record)
		if err != nil {
			t.Fatal(err)
		}
		w.Metacell(l, &m, iso, &im)
	}
	var m metacell.Meta
	if err := metacell.DecodeRecordInto(l, cells[0].Record, &m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		im.Reset()
		for _, c := range cells {
			if err := metacell.DecodeRecordInto(l, c.Record, &m); err != nil {
				t.Fatal(err)
			}
			w.Metacell(l, &m, iso, &im)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state weld loop allocates %v per run, want 0", allocs)
	}
}
