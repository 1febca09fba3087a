package metacell

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/volume"
)

func collectStream(t *testing.T, src PlaneSource, span int) (Layout, []Cell) {
	t.Helper()
	l, cells, err := ExtractStream(src, span)
	if err != nil {
		t.Fatal(err)
	}
	return l, cells
}

func assertSameCells(t *testing.T, want, got []Cell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].VMin != want[i].VMin || got[i].VMax != want[i].VMax {
			t.Fatalf("cell %d header mismatch: %+v vs %+v", i, got[i], want[i])
		}
		if !bytes.Equal(got[i].Record, want[i].Record) {
			t.Fatalf("cell %d record mismatch", i)
		}
	}
}

func TestExtractStreamMatchesExtract(t *testing.T) {
	for _, dims := range [][3]int{{33, 33, 30}, {20, 28, 12}, {9, 9, 9}} {
		g := volume.RichtmyerMeshkov(dims[0], dims[1], dims[2], 230, 7)
		wantL, want := Extract(g, 9)
		gotL, got := collectStream(t, SourceFromGrid(g), 9)
		if gotL != wantL {
			t.Fatalf("%v: layout mismatch: %+v vs %+v", dims, gotL, wantL)
		}
		assertSameCells(t, want, got)
	}
}

func TestExtractStreamSpanVariants(t *testing.T) {
	g := volume.Sphere(21)
	for _, span := range []int{2, 5, 9} {
		_, want := Extract(g, span)
		_, got := collectStream(t, SourceFromGrid(g), span)
		assertSameCells(t, want, got)
	}
}

func TestExtractStreamFromFile(t *testing.T) {
	g := volume.RichtmyerMeshkov(33, 33, 30, 230, 7)
	path := filepath.Join(t.TempDir(), "vol.bin")
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenPlaneFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	nx, ny, nz, f := pf.Dims()
	if nx != 33 || ny != 33 || nz != 30 || f != volume.U8 {
		t.Fatalf("dims = %d×%d×%d %v", nx, ny, nz, f)
	}
	_, want := Extract(g, 9)
	_, got := collectStream(t, pf, 9)
	assertSameCells(t, want, got)
}

func TestExtractStreamFromFileU16(t *testing.T) {
	g := volume.MRBrainLike(20, 3)
	path := filepath.Join(t.TempDir(), "vol16.bin")
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenPlaneFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	_, want := Extract(g, 9)
	_, got := collectStream(t, pf, 9)
	assertSameCells(t, want, got)
}

func TestPlaneFileErrors(t *testing.T) {
	if _, err := OpenPlaneFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should fail")
	}
	junk := filepath.Join(t.TempDir(), "junk")
	if err := writeFile(junk, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPlaneFile(junk); err == nil {
		t.Error("bad magic should fail")
	}

	g := volume.Sphere(12)
	path := filepath.Join(t.TempDir(), "v.bin")
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenPlaneFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	buf := make([]byte, 12*12)
	if err := pf.ReadPlane(-1, buf); err == nil {
		t.Error("negative plane should fail")
	}
	if err := pf.ReadPlane(12, buf); err == nil {
		t.Error("out-of-range plane should fail")
	}
	if err := pf.ReadPlane(0, buf[:5]); err == nil {
		t.Error("short buffer should fail")
	}
}

// failingSource is a grid whose plane `bad` cannot be read.
type failingSource struct {
	PlaneSource
	bad int
}

func (s failingSource) ReadPlane(z int, dst []byte) error {
	if z == s.bad {
		return errStop
	}
	return s.PlaneSource.ReadPlane(z, dst)
}

// TestExtractStreamSourceError: whichever range meets the plane that cannot
// be read, ExtractStream returns that error and no cells, and every goroutine
// it started is gone when it does.
func TestExtractStreamSourceError(t *testing.T) {
	g := volume.RichtmyerMeshkov(17, 17, 41, 230, 7) // Mz = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for bad := 0; bad < g.Nz; bad++ {
			before := runtime.NumGoroutine()
			_, cells, err := ExtractStream(failingSource{SourceFromGrid(g), bad}, 9)
			if !errors.Is(err, errStop) || cells != nil {
				t.Fatalf("GOMAXPROCS %d, plane %d unreadable: %d cells, err = %v", procs, bad, len(cells), err)
			}
			waitGoroutines(t, before)
		}
	}
}

// waitGoroutines gives goroutines that have finished their work a moment to
// exit, then fails if more are left than there were before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestExtractStreamBadSpan(t *testing.T) {
	g := volume.Sphere(9)
	for _, span := range []int{1, MaxSpan + 1} {
		if _, _, err := ExtractStream(SourceFromGrid(g), span); err == nil {
			t.Errorf("span %d should fail", span)
		}
	}
}

var errStop = errors.New("stop")

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

// extractBySample is the extractor as it was first written, kept here as the
// oracle: every sample of every metacell fetched through Grid.At with its
// coordinates clamped to the volume, min and max taken over the decoded
// values, the record encoded value by value.
func extractBySample(g *volume.Grid, span int) (Layout, []Cell) {
	l := NewLayout(g, span)
	var cells []Cell
	buf := make([]float32, span*span*span)
	for id := uint32(0); int(id) < l.Count(); id++ {
		ox, oy, oz := l.Origin(id)
		vmin, vmax := float32(math.Inf(1)), float32(math.Inf(-1))
		i := 0
		for dz := 0; dz < span; dz++ {
			for dy := 0; dy < span; dy++ {
				for dx := 0; dx < span; dx++ {
					v := g.At(min(ox+dx, g.Nx-1), min(oy+dy, g.Ny-1), min(oz+dz, g.Nz-1))
					buf[i] = v
					i++
					if v < vmin {
						vmin = v
					}
					if v > vmax {
						vmax = v
					}
				}
			}
		}
		if vmin < vmax { // not constant, and not all NaN
			cells = append(cells, Cell{ID: id, VMin: vmin, VMax: vmax, Record: EncodeRecord(l, id, vmin, buf)})
		}
	}
	return l, cells
}

// TestExtractorMatchesPerSampleOracle holds the one extractor — over the grid
// and over a volume file, split into one, two, three and (where there are
// that many slab rows) eight ranges — to the per-sample oracle, record for
// record, in every scalar format, on volumes whose dimensions are and are not
// multiples of span-1, with one, two, three and more slab rows, one of them
// thinner than a metacell, and with float samples that include ±Inf, NaN and
// a corner of nothing but NaN.
func TestExtractorMatchesPerSampleOracle(t *testing.T) {
	dims := [][3]int{{17, 17, 17}, {17, 25, 9}, {20, 28, 12}, {10, 9, 3}, {2, 2, 2}, {19, 3, 30}, {1, 9, 9}, {9, 10, 25}, {12, 9, 21}}
	for _, f := range []volume.Format{volume.U8, volume.U16, volume.F32} {
		for _, d := range dims {
			for _, span := range []int{9, 4, 2} {
				g := volume.New(d[0], d[1], d[2], f)
				g.Fill(func(x, y, z int) float32 {
					h := uint32(x*73856093 ^ y*19349663 ^ z*83492791)
					switch {
					case z%5 == 4:
						return 7 // constant slabs: dropped metacells between kept ones
					case f == volume.F32 && (h%61 == 0 || x < 5 && y < 5 && z < 4):
						return math.Float32frombits(0x7fc00000 | h%2) // NaN, two payloads: scattered, and whole metacells of it at spans 4 and 2
					case f == volume.F32 && h%67 == 0:
						return float32(math.Inf(int(h%2)*2 - 1))
					case f == volume.U8:
						return float32(h % 256)
					}
					return float32(h%60000) + float32(h%4)/4 // fractions survive only in f32
				})
				wantL, want := extractBySample(g, span)
				path := filepath.Join(t.TempDir(), "v.vol")
				if err := g.WriteFile(path); err != nil {
					t.Fatal(err)
				}
				pf, err := OpenPlaneFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{1, 2, 3, 8} {
					name := fmt.Sprintf("%v %v span %d GOMAXPROCS %d", f, d, span, procs)
					prev := runtime.GOMAXPROCS(procs)
					gotL, got := Extract(g, span)
					_, fromFile := collectStream(t, pf, span)
					runtime.GOMAXPROCS(prev)
					if gotL != wantL {
						t.Fatalf("%s: layout %+v, oracle %+v", name, gotL, wantL)
					}
					assertSameCellBits(t, name+" (grid)", want, got)
					assertSameCellBits(t, name+" (file)", want, fromFile)
				}
				pf.Close()
			}
		}
	}
}

// TestExtractNaNMetacells: a metacell of nothing but NaN is dropped — no
// isovalue cuts it, and [+Inf, -Inf] is not an interval — while one that is
// partly NaN keeps the interval of the samples that are numbers.
func TestExtractNaNMetacells(t *testing.T) {
	g := volume.New(33, 33, 33, volume.F32)
	g.Fill(func(x, y, z int) float32 {
		if x < 9 && y < 9 && z < 9 {
			return math.Float32frombits(0x7fc00000 | uint32(x&1)) // two payloads: not one bit pattern
		}
		return float32(x + y + z)
	})
	l, cells := Extract(g, 9)
	if len(cells) != l.Count()-1 || cells[0].ID != 1 {
		t.Fatalf("%d of %d metacells kept, the first is %d: want all but metacell 0", len(cells), l.Count(), cells[0].ID)
	}
	// Metacell 1 is x 8..16, y and z 0..8: its x = 8 face is NaN.
	if c := cells[0]; c.VMin != 9 || c.VMax != 32 || VMinOfRecord(l, c.Record) != 9 {
		t.Errorf("partly-NaN metacell 1 has [%v, %v] (record vmin %v), want [9, 32]", c.VMin, c.VMax, VMinOfRecord(l, c.Record))
	}
}

// assertSameCellBits is assertSameCells with intervals compared by bits: an
// interval of -0 is not one of +0.
func assertSameCellBits(t *testing.T, name string, want, got []Cell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, oracle %d", name, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.ID != w.ID || math.Float32bits(g.VMin) != math.Float32bits(w.VMin) || math.Float32bits(g.VMax) != math.Float32bits(w.VMax) {
			t.Fatalf("%s: cell %d is %d [%v, %v], oracle %d [%v, %v]", name, i, g.ID, g.VMin, g.VMax, w.ID, w.VMin, w.VMax)
		}
		if !bytes.Equal(g.Record, w.Record) {
			t.Fatalf("%s: cell %d (metacell %d): record differs from the oracle's", name, i, w.ID)
		}
	}
}

// hostileHeaders are 24-byte files: headers with nothing after them.
func hostileHeaders() map[string][]byte {
	hdr := func(format, nx, ny, nz uint32) []byte {
		b := make([]byte, volume.HeaderSize)
		for i, v := range []uint32{0x564f4c31, format, nx, ny, nz, 0} {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	return map[string][]byte{
		"16 GiB of f32 samples":     hdr(uint32(volume.F32), 1<<11, 1<<11, 1<<10),
		"dimensions that wrap to 4": hdr(uint32(volume.U8), 1<<22, 1<<22, 1<<22),
		"dimensions past any int":   hdr(uint32(volume.F32), math.MaxUint32, math.MaxUint32, math.MaxUint32),
		"format 7":                  hdr(7, 4, 4, 4),
		"an empty dimension":        hdr(uint32(volume.U8), 4, 0, 4),
	}
}

// TestHostileVolumeHeaders: a header is a claim. Neither reader of volume
// files panics on one that is wrong, and neither allocates by it — ReadFile's
// 1 MiB read buffer is the most either spends on 24 bytes of input — before
// the file has shown it holds what the header says.
func TestHostileVolumeHeaders(t *testing.T) {
	for name, data := range hostileHeaders() {
		path := filepath.Join(t.TempDir(), "hostile.vol")
		if err := writeFile(path, data); err != nil {
			t.Fatal(err)
		}
		readers := map[string]func() error{
			"volume.ReadFile": func() error { _, err := volume.ReadFile(path); return err },
			"OpenPlaneFile": func() error {
				pf, err := OpenPlaneFile(path)
				if err == nil {
					pf.Close()
				}
				return err
			},
		}
		for reader, read := range readers {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: %s accepted it", name, reader)
			}
			if !errors.Is(err, volume.ErrBadHeader) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
				t.Errorf("%s: %s: untyped error %v", name, reader, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2<<20 {
				t.Errorf("%s: %s allocated %d bytes for a %d-byte file", name, reader, alloc, len(data))
			}
		}
	}
}

// countingSource counts the planes read through it, each plane by itself.
type countingSource struct {
	PlaneSource
	reads []atomic.Int32 // per plane
}

func (s *countingSource) ReadPlane(z int, dst []byte) error {
	s.reads[z].Add(1)
	return s.PlaneSource.ReadPlane(z, dst)
}

// TestExtractStreamPlaneReads pins the hand-out's out-of-core bound: every
// plane is read, and the source serves Nz reads plus at most one per group
// handed out after the first (a group's first plane is its predecessor's
// last, and only a worker that extracted the predecessor has it) — Nz exactly
// with one worker. Over the grid, as Extract reads it, and over a volume file.
func TestExtractStreamPlaneReads(t *testing.T) {
	g := volume.RichtmyerMeshkov(33, 29, 83, 230, 7) // Mz = 11: six groups, the last one row
	path := filepath.Join(t.TempDir(), "v.vol")
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenPlaneFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	_, want := Extract(g, 9)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for name, inner := range map[string]PlaneSource{"grid": SourceFromGrid(g), "file": pf} {
			for range 5 {
				src := &countingSource{PlaneSource: inner, reads: make([]atomic.Int32, g.Nz)}
				l, got, err := ExtractStream(src, 9)
				if err != nil {
					t.Fatal(err)
				}
				assertSameCells(t, want, got)
				total := 0
				for z := range src.reads {
					n := int(src.reads[z].Load())
					if n == 0 {
						t.Fatalf("GOMAXPROCS %d, %s: plane %d never read", procs, name, z)
					}
					total += n
				}
				groups := (l.Mz + groupRows - 1) / groupRows
				if bound := g.Nz + groups - 1; total > bound || procs == 1 && total != g.Nz {
					t.Fatalf("GOMAXPROCS %d, %s: %d plane reads of %d planes in %d groups, want at most %d (%d with one worker)",
						procs, name, total, g.Nz, groups, bound, g.Nz)
				}
			}
		}
	}
}
