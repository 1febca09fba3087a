package march

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/metacell"
	"repro/internal/volume"
)

// Metacell is the soup baseline every weld is held to: it triangulates each
// cell of a decoded metacell on its own, as Grid does, appending triangles
// (in volume coordinates) to out, each cell interpolating its own copy of
// every edge crossing. It returns the number of active cells. Cells that
// reach past the volume boundary (only in truncated edge metacells, whose
// samples were clamp-padded) are skipped, so no geometry lies outside the
// data.
func Metacell(l metacell.Layout, m *metacell.Meta, iso float32, out *geom.Mesh) int {
	ox, oy, oz := l.Origin(m.ID)
	span := l.Span
	active := 0
	var v [8]float32
	for dz := 0; dz < span-1; dz++ {
		if oz+dz+1 >= l.Nz {
			break
		}
		for dy := 0; dy < span-1; dy++ {
			if oy+dy+1 >= l.Ny {
				break
			}
			row := (dz*span + dy) * span
			for dx := 0; dx < span-1; dx++ {
				if ox+dx+1 >= l.Nx {
					break
				}
				i := row + dx
				v[0] = m.Samples[i]
				v[1] = m.Samples[i+1]
				v[2] = m.Samples[i+span]
				v[3] = m.Samples[i+span+1]
				v[4] = m.Samples[i+span*span]
				v[5] = m.Samples[i+span*span+1]
				v[6] = m.Samples[i+span*span+span]
				v[7] = m.Samples[i+span*span+span+1]
				origin := geom.V(float32(ox+dx), float32(oy+dy), float32(oz+dz))
				if cell(&v, origin, iso, out) {
					active++
				}
			}
		}
	}
	return active
}

// checkWeldAgainstSoup welds m into out, which may already hold geometry,
// twice — from its record, encoded in the layout's format, through
// Welder.Record, and from the decoded samples through Welder.Metacell — and
// holds what each appended to the soup baseline over the decoded samples.
func checkWeldAgainstSoup(t *testing.T, w *Welder, l metacell.Layout, m *metacell.Meta, iso float32, out *geom.IndexedMesh) {
	t.Helper()
	var soup geom.Mesh
	wantActive := Metacell(l, m, iso, &soup)
	want := cutEdges(l, m, iso)

	rec := metacell.EncodeRecord(l, m.ID, m.VMin, m.Samples)
	nv0, ni0 := len(out.Verts), len(out.Idx)
	got, err := w.Record(l, rec, iso, out)
	if err != nil {
		t.Fatalf("span %d %v iso %v: Record: %v", l.Span, l.Fmt, iso, err)
	}
	checkWelded(t, fmt.Sprintf("span %d %v record, iso %v", l.Span, l.Fmt, iso), out, nv0, ni0, got, wantActive, want, &soup)
	if finiteCrossings(m.Samples, iso) {
		for i, v := range out.Verts[nv0:] {
			if !onGridEdge(v) {
				t.Fatalf("span %d %v record, iso %v: vertex %d %v (%x) is on no grid edge", l.Span, l.Fmt, iso, i, v, bitsOf(v))
			}
		}
	}

	nv0, ni0 = len(out.Verts), len(out.Idx)
	got = w.Metacell(l, m, iso, out)
	checkWelded(t, fmt.Sprintf("span %d decoded %v, iso %v", l.Span, l.Fmt, iso), out, nv0, ni0, got, wantActive, want, &soup)
}

// checkWelded holds what one weld appended to out past (nv0, ni0) to the soup:
// the same active count and, by bits (so NaN positions compare), the same
// triangles in the same order. The weld's structure is checked too: every
// index names a vertex this weld added, every vertex it added is used, and
// there are exactly as many of them as grid edges of the cell extent whose
// two samples straddle the isovalue.
func checkWelded(t *testing.T, name string, out *geom.IndexedMesh, nv0, ni0, gotActive, wantActive, wantVerts int, soup *geom.Mesh) {
	t.Helper()
	if gotActive != wantActive {
		t.Fatalf("%s: %d active cells, soup baseline %d", name, gotActive, wantActive)
	}
	verts, idx := out.Verts[nv0:], out.Idx[ni0:]
	if len(idx) != 3*soup.Len() {
		t.Fatalf("%s: %d indices for the soup's %d triangles", name, len(idx), soup.Len())
	}
	used := make([]bool, len(verts))
	for k, id := range idx {
		if int(id) < nv0 || int(id) >= len(out.Verts) {
			t.Fatalf("%s: index %d names vertex %d, this metacell's are %d..%d", name, k, id, nv0, len(out.Verts)-1)
		}
		used[int(id)-nv0] = true
		tri := soup.Tris[k/3]
		want := [3]geom.Vec3{tri.A, tri.B, tri.C}[k%3]
		if got := out.Verts[id]; bitsOf(got) != bitsOf(want) {
			t.Fatalf("%s: triangle %d corner %d is %v (%x), soup baseline %v (%x)",
				name, k/3, k%3, got, bitsOf(got), want, bitsOf(want))
		}
	}
	for v, ok := range used {
		if !ok {
			t.Fatalf("%s: vertex %d of %d is in no triangle", name, v, len(verts))
		}
	}
	if len(verts) != wantVerts {
		t.Fatalf("%s: %d vertices for %d cut grid edges", name, len(verts), wantVerts)
	}
}

// finiteCrossings reports whether every crossing a weld of samples at iso
// can make has a finite fraction: the samples and the isovalue are within
// half the float32 range, so no difference of two of them overflows. Every
// u8 and u16 sample is; an f32 record may hold ±Inf or NaN, or finite values
// a range apart whose difference overflows to an Inf — and ∞/∞ is NaN.
func finiteCrossings(samples []float32, iso float32) bool {
	const half = math.MaxFloat32 / 2
	for _, s := range samples {
		if !(math.Abs(float64(s)) <= half) {
			return false
		}
	}
	return math.Abs(float64(iso)) <= half || math.IsNaN(float64(iso))
}

// onGridEdge reports whether two of v's coordinates are integers in
// [0, 2¹⁴), bit for bit (−0 is not): the grid property meshio's 8-byte grid
// vertices rely on (meshio/chunk.go), which the crossing of a finite
// fraction along one axis from an integer grid point has.
func onGridEdge(v geom.Vec3) bool {
	n := 0
	for _, c := range [3]float32{v.X, v.Y, v.Z} {
		if c >= 0 && c < 1<<14 && !math.Signbit(float64(c)) && float64(c) == math.Trunc(float64(c)) {
			n++
		}
	}
	return n >= 2
}

func bitsOf(p geom.Vec3) [3]uint32 {
	return [3]uint32{math.Float32bits(p.X), math.Float32bits(p.Y), math.Float32bits(p.Z)}
}

// cutEdges counts, sample by sample, the grid edges between samples of the
// metacell that lie inside the volume and on opposite sides of iso.
func cutEdges(l metacell.Layout, m *metacell.Meta, iso float32) int {
	ox, oy, oz := l.Origin(m.ID)
	n := [3]int{min(l.Span, l.Nx-ox), min(l.Span, l.Ny-oy), min(l.Span, l.Nz-oz)} // samples inside, per axis
	if n[0] < 2 || n[1] < 2 || n[2] < 2 {
		return 0 // no whole cell inside
	}
	at := func(x, y, z int) bool { return m.Samples[(z*l.Span+y)*l.Span+x] >= iso }
	cut := 0
	for z := 0; z < n[2]; z++ {
		for y := 0; y < n[1]; y++ {
			for x := 0; x < n[0]; x++ {
				in := at(x, y, z)
				if x+1 < n[0] && in != at(x+1, y, z) {
					cut++
				}
				if y+1 < n[1] && in != at(x, y+1, z) {
					cut++
				}
				if z+1 < n[2] && in != at(x, y, z+1) {
					cut++
				}
			}
		}
	}
	return cut
}

// fuzzSamples fills a span³ block from data, read cyclically as values of
// format fm: bytes, little-endian uint16s, or raw float32 bit patterns (NaNs
// and infinities included).
func fuzzSamples(span int, fm volume.Format, data []byte) []float32 {
	samples := make([]float32, span*span*span)
	if len(data) == 0 {
		return samples
	}
	var word [4]byte
	at := 0 // the next byte of data
	for i := range samples {
		for b := range word[:fm.Bytes()] {
			word[b] = data[at]
			if at++; at == len(data) {
				at = 0
			}
		}
		switch fm {
		case volume.U8:
			samples[i] = float32(word[0])
		case volume.U16:
			samples[i] = float32(binary.LittleEndian.Uint16(word[:]))
		default:
			samples[i] = math.Float32frombits(binary.LittleEndian.Uint32(word[:]))
		}
	}
	return samples
}

// FuzzWelderMatchesSoup is the differential test of the weld kernel against
// the soup triangulator: arbitrary sample blocks in each format's value
// range, welded from their encoded u8, u16 or f32 record (Welder.Record) and
// from the decoded samples (Welder.Metacell) while the soup reads the decoded
// samples — and every vertex a record of finite crossings welds to on a grid
// edge; spans 2..70 on both sides of the one-word mask limit, metacells
// anywhere in a 2×2×2 layout whose volume cuts them short on any subset of
// axes, any isovalue bit pattern — NaN, ±Inf, negative, fractional, equal to
// a sample, past the format's range. (Whole metacells of the large spans are
// TestWelderAroundMaskWidth's and TestWelderWideSpanFallback's.) One Welder and one batch mesh serve the
// whole body — a dense metacell, then the same block gone sparse, then another
// isovalue, then a second span in the next format and a third in the one
// after — because the edge table is never cleared and the sample copy is
// reused: what an earlier weld left in either must never reach a triangle.
func FuzzWelderMatchesSoup(f *testing.F) {
	ramp := make([]byte, 251)
	for i := range ramp {
		ramp[i] = byte(i * 37)
	}
	iso := func(v float32) uint32 { return math.Float32bits(v) }
	nan, inf := uint32(0x7fc00001), math.Float32bits(float32(math.Inf(1)))
	f.Add(ramp, iso(128), uint8(9-2), uint8(5-2), uint8(0), uint8(0), uint8(0))                          // the paper's span, whole metacell
	f.Add(ramp, iso(128), uint8(9-2), uint8(17-2), uint8(0), uint8(7), uint8(0b111))                     // far corner, cut short on every axis
	f.Add(ramp, iso(77.5), uint8(9-2), uint8(9-2), uint8(0), uint8(3), uint8(0b001))                     // cut short in x only
	f.Add(ramp[:7], iso(100), uint8(2-2), uint8(3-2), uint8(0), uint8(0), uint8(0))                      // one cell
	f.Add(ramp, iso(30000), uint8(12-2), uint8(4-2), uint8(1), uint8(5), uint8(0b010))                   // uint16 range
	f.Add(ramp, iso(128), uint8(63-2), uint8(9-2), uint8(0), uint8(0), uint8(0))                         // one bit short of a mask word
	f.Add(ramp, iso(128), uint8(64-2), uint8(65-2), uint8(0), uint8(0), uint8(0))                        // exactly a mask word, then one past
	f.Add(ramp, iso(128), uint8(65-2), uint8(64-2), uint8(0), uint8(6), uint8(0b101))                    // wide and cut short, then narrow
	f.Add(ramp, iso(128), uint8(70-2), uint8(9-2), uint8(0), uint8(0), uint8(0))                         // widest, then narrow
	f.Add(ramp, iso(0), uint8(9-2), uint8(9-2), uint8(0), uint8(0), uint8(0))                            // everything inside
	f.Add(ramp, nan, uint8(9-2), uint8(6-2), uint8(2), uint8(0), uint8(0))                               // NaN isovalue: nothing inside
	f.Add(ramp, inf, uint8(9-2), uint8(6-2), uint8(2), uint8(1), uint8(0b100))                           // +Inf isovalue over raw float bits
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0xff, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x3f, 0, 0, 0, 0xc0}, // ±Inf, NaN, 1, -2
		iso(0.5), uint8(5-2), uint8(9-2), uint8(2), uint8(2), uint8(0b011))
	f.Add([]byte{0xff, 0xff, 0x7f, 0x7f, 0xff, 0xff, 0x7f, 0xff}, iso(0), uint8(4-2), uint8(3-2), uint8(2), uint8(0), uint8(0)) // ±MaxFloat32: vb-va overflows
	f.Add([]byte{}, iso(0), uint8(3-2), uint8(3-2), uint8(1), uint8(0), uint8(0))
	// Where classifying in the sample's own domain could part from comparing
	// floats: isovalues at, between and around the integers a format holds.
	f.Add(ramp, iso(37), uint8(9-2), uint8(9-2), uint8(0), uint8(0), uint8(0))                                 // u8 first: an exact sample value
	f.Add(ramp, iso(254.5), uint8(9-2), uint8(17-2), uint8(0), uint8(7), uint8(0b110))                         // between the top two bytes; -iso/2+1 is negative
	f.Add(ramp, iso(255), uint8(9-2), uint8(9-2), uint8(0), uint8(0), uint8(0))                                // the largest byte
	f.Add(ramp, iso(255.5), uint8(9-2), uint8(9-2), uint8(0), uint8(0), uint8(0))                              // just past a byte, inside a uint16
	f.Add(ramp, iso(-3), uint8(9-2), uint8(9-2), uint8(0), uint8(0), uint8(0))                                 // below every integer; -iso/2+1 = 2.5
	f.Add(ramp, iso(300), uint8(16-2), uint8(8-2), uint8(0), uint8(1), uint8(0b001))                           // past a byte: span 16 rows are two whole words
	f.Add(ramp, iso(0.25), uint8(17-2), uint8(24-2), uint8(0), uint8(0), uint8(0))                             // only zero is outside; rows of 17 and 24 bytes
	f.Add(ramp, iso(9509), uint8(9-2), uint8(9-2), uint8(1), uint8(0), uint8(0))                               // u16 first: 0x2525, an exact sample value
	f.Add(ramp, iso(65535), uint8(9-2), uint8(9-2), uint8(1), uint8(4), uint8(0b100))                          // the largest uint16
	f.Add(ramp, iso(65535.5), uint8(9-2), uint8(9-2), uint8(1), uint8(0), uint8(0))                            // rounds to 65536: past a uint16
	f.Add(ramp, iso(70000), uint8(9-2), uint8(9-2), uint8(1), uint8(0), uint8(0))                              // well past
	f.Add(ramp, math.Float32bits(float32(math.Inf(-1))), uint8(9-2), uint8(9-2), uint8(1), uint8(0), uint8(0)) // -Inf: everything inside, then +Inf
	f.Add(ramp, iso(-0.0), uint8(9-2), uint8(9-2), uint8(2), uint8(0), uint8(0))                               // f32 first
	f.Add(ramp, uint32(0x80000000), uint8(9-2), uint8(9-2), uint8(0), uint8(0), uint8(0))                      // negative zero

	f.Fuzz(func(t *testing.T, data []byte, isoBits uint32, spanA, spanB, fmtRaw, id, cutShort uint8) {
		iso := math.Float32frombits(isoBits)
		formats := []volume.Format{volume.U8, volume.U16, volume.F32}
		var w Welder
		var out geom.IndexedMesh
		for round, span := range []int{2 + int(spanA)%69, 2 + int(spanB)%69, 2 + int(spanA)%69} {
			// The metacell sits somewhere in a 2×2×2 grid; on the axes cutShort
			// names, the volume ends inside it (after 1..span of its samples).
			// Large spans keep their full length on one axis at a time and a
			// few samples on the others, so an execution stays milliseconds.
			fm := formats[(int(fmtRaw)+round)%3]
			l := metacell.Layout{Span: span, Fmt: fm, Mx: 2, My: 2, Mz: 2}
			m := metacell.Meta{ID: uint32(id % 8)}
			ox, oy, oz := l.Origin(m.ID)
			seed := len(data) + int(id>>3)
			keep := func(axis int) int {
				n := span
				if cutShort>>axis&1 != 0 {
					n = 1 + (seed+axis*round)%span
				}
				if span > 16 && axis != (seed+round)%3 {
					n = min(n, 2+seed%11)
				}
				return n
			}
			l.Nx, l.Ny, l.Nz = ox+keep(0), oy+keep(1), oz+keep(2)

			m.Samples = fuzzSamples(span, fm, data)
			checkWeldAgainstSoup(t, &w, l, &m, iso, &out) // as dense as the data makes it

			// The same block with all but a few planes flattened: most of the
			// edge table now holds ids of edges that are no longer cut.
			for i := range m.Samples[:len(m.Samples)*3/4] {
				m.Samples[i] = m.Samples[0]
			}
			checkWeldAgainstSoup(t, &w, l, &m, iso, &out)

			// And a different surface through it, over both of those.
			checkWeldAgainstSoup(t, &w, l, &m, -iso/2+1, &out)
		}
	})
}

// TestRecordRejectsWhatDecodeRejects: a record that is not the layout's — the
// wrong size, an ID outside the metacell grid — gets from Welder.Record the
// error DecodeRecordInto gives it, in every format, and the mesh it was to be
// welded into is left as it was.
func TestRecordRejectsWhatDecodeRejects(t *testing.T) {
	for _, fm := range []volume.Format{volume.U8, volume.U16, volume.F32} {
		l := metacell.Layout{Span: 5, Fmt: fm, Nx: 9, Ny: 9, Nz: 9, Mx: 2, My: 2, Mz: 2}
		samples := fuzzSamples(l.Span, fm, []byte{3, 200, 90, 17, 140, 66, 251})
		good := metacell.EncodeRecord(l, 7, 0, samples)
		iso := (slices.Min(samples) + slices.Max(samples)) / 2
		outside := func(id uint32) []byte {
			rec := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(rec, id)
			return rec
		}
		var w Welder
		var out geom.IndexedMesh
		if n, err := w.Record(l, good, iso, &out); err != nil || n == 0 || out.Len() == 0 {
			t.Fatalf("%v: the good record welds to %d cells, %d triangles, error %v", fm, n, out.Len(), err)
		}
		verts, idx := slices.Clone(out.Verts), slices.Clone(out.Idx)
		for name, rec := range map[string][]byte{
			"empty":                  {},
			"one byte short":         good[:len(good)-1],
			"one byte long":          append(append([]byte(nil), good...), 0),
			"first ID past the grid": outside(uint32(l.Count())),
			"largest ID":             outside(math.MaxUint32),
		} {
			var m metacell.Meta
			want := metacell.DecodeRecordInto(l, rec, &m)
			if want == nil {
				t.Fatalf("%v %s: DecodeRecordInto accepts it", fm, name)
			}
			n, err := w.Record(l, rec, iso, &out)
			if err == nil || err.Error() != want.Error() || n != 0 {
				t.Errorf("%v %s: Record returns %d cells, error %v; DecodeRecordInto's is %v", fm, name, n, err, want)
			}
			if !slices.Equal(out.Verts, verts) || !slices.Equal(out.Idx, idx) {
				t.Errorf("%v %s: the rejected record changed the mesh", fm, name)
			}
		}
	}
}

// TestWelderAroundMaskWidth runs the differential check at the spans where
// the row masks fill up: 63, 64 (every bit of the word, cx = 63) and 65 (the
// first span without masks), whole and cut short, with one Welder.
func TestWelderAroundMaskWidth(t *testing.T) {
	noise := make([]byte, 4099)
	for i := range noise {
		noise[i] = byte(i*i*31 + i*7)
	}
	var w Welder
	var out geom.IndexedMesh
	for _, span := range []int{63, 64, 65, 66, 64} {
		for _, short := range [][3]int{{0, 0, 0}, {1, 0, 0}, {5, 40, 61}} {
			l := metacell.Layout{Span: span, Fmt: volume.U8, Mx: 2, My: 2, Mz: 2}
			m := metacell.Meta{ID: 7, Samples: fuzzSamples(span, volume.U8, noise)}
			ox, oy, oz := l.Origin(m.ID)
			l.Nx, l.Ny, l.Nz = ox+span-short[0], oy+span-short[1], oz+span-short[2]
			out.Reset()
			checkWeldAgainstSoup(t, &w, l, &m, 128, &out)
			if out.Len() == 0 {
				t.Fatalf("span %d short %v: no triangles; the check is vacuous", span, short)
			}
		}
	}
}
