package metacell

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/volume"
)

// PlaneSource yields a volume one z-plane at a time, so preprocessing can
// run over datasets that do not fit in memory (the paper's time steps are
// 7.5 GB against 8 GB of node RAM). A plane is handed over as the volume
// stores it — the bytes a record's sample rows are made of — and never as
// decoded values. SourceFromGrid serves in-memory data; PlaneFile streams
// from a volume file on disk.
type PlaneSource interface {
	// Dims returns the volume dimensions and scalar format.
	Dims() (nx, ny, nz int, f volume.Format)
	// ReadPlane fills dst (nx*ny samples, x-fastest, in the volume's format)
	// with plane z. The extractor calls it from several goroutines at once,
	// each with a dst of its own.
	ReadPlane(z int, dst []byte) error
}

// gridSource adapts an in-memory grid.
type gridSource struct{ g *volume.Grid }

// SourceFromGrid wraps an in-memory volume as a PlaneSource.
func SourceFromGrid(g *volume.Grid) PlaneSource { return gridSource{g} }

func (s gridSource) Dims() (int, int, int, volume.Format) {
	return s.g.Nx, s.g.Ny, s.g.Nz, s.g.Fmt
}

func (s gridSource) ReadPlane(z int, dst []byte) error {
	if z < 0 || z >= s.g.Nz {
		return fmt.Errorf("metacell: plane %d outside [0,%d)", z, s.g.Nz)
	}
	plane := s.g.Plane(z)
	if len(dst) != len(plane) {
		return fmt.Errorf("metacell: plane buffer has %d bytes, want %d", len(dst), len(plane))
	}
	copy(dst, plane)
	return nil
}

// PlaneFile streams planes from a volume file written by volume.WriteFile,
// reading each plane on demand (ReadAt: no shared file position) so memory
// stays O(nx·ny·span) per reader.
type PlaneFile struct {
	f   *os.File
	hdr volume.Header
}

// OpenPlaneFile opens a volume file for streaming. The header is read by
// volume's parser, and a file shorter than the payload its header declares
// is refused here, before anyone sizes a buffer by that header.
func OpenPlaneFile(path string) (*PlaneFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	pf, err := newPlaneFile(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("metacell: %s: %w", path, err)
	}
	return pf, nil
}

func newPlaneFile(f *os.File) (*PlaneFile, error) {
	hdr, err := volume.ReadHeader(f)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if have, want := fi.Size()-volume.HeaderSize, int64(hdr.PayloadBytes()); have < want {
		return nil, fmt.Errorf("%w: %d×%d×%d %v samples need %d bytes, the file holds %d",
			volume.ErrBadHeader, hdr.Nx, hdr.Ny, hdr.Nz, hdr.Fmt, want, have)
	}
	return &PlaneFile{f: f, hdr: hdr}, nil
}

// Dims implements PlaneSource.
func (pf *PlaneFile) Dims() (int, int, int, volume.Format) {
	return pf.hdr.Nx, pf.hdr.Ny, pf.hdr.Nz, pf.hdr.Fmt
}

// ReadPlane implements PlaneSource.
func (pf *PlaneFile) ReadPlane(z int, dst []byte) error {
	if z < 0 || z >= pf.hdr.Nz {
		return fmt.Errorf("metacell: plane %d outside [0,%d)", z, pf.hdr.Nz)
	}
	if len(dst) != pf.hdr.PlaneBytes() {
		return fmt.Errorf("metacell: plane buffer has %d bytes, want %d", len(dst), pf.hdr.PlaneBytes())
	}
	off := volume.HeaderSize + int64(z)*int64(len(dst))
	if _, err := pf.f.ReadAt(dst, off); err != nil {
		return fmt.Errorf("metacell: reading plane %d: %w", z, err)
	}
	return nil
}

// Close releases the file.
func (pf *PlaneFile) Close() error { return pf.f.Close() }

// ExtractStream decomposes a streamed volume into metacells and returns the
// non-constant ones in ID order.
//
// The metacell grid's Mz slab rows are split into min(GOMAXPROCS, Mz)
// contiguous ranges, one goroutine each, and the ranges' cells are joined in
// range order. A range is extracted exactly as the whole would be and IDs
// grow with mz, so the cells — IDs, intervals, record bytes, order — do not
// depend on how many ranges there were. Each range holds span z-planes (a
// ring of O(nx·ny·span) samples, as stored), so beside the kept records the
// extractor holds workers × span planes.
//
// A metacell is decided before it is copied: its rows are compared where they
// lie in the ring, and one whose samples are all the same bits is dropped
// untouched. Any other is assembled and its interval taken over the record's
// samples; it is kept when vmin < vmax. That drops, too, a float metacell
// that is constant by value but not by bits (±0, or one value among NaNs),
// and one that holds nothing but NaN: no isovalue cuts it, and an interval
// without its own endpoints is not one the index can hold.
//
// A record's sample rows are the volume's own bytes: each row is one copy of
// the samples the volume has for it, and where the metacell reaches past the
// volume's +x, +y or +z face (dimensions that are not a multiple of span-1)
// the last sample, row or plane inside is repeated, which clamps every
// coordinate to the nearest edge sample. That keeps every record the same
// size without creating spurious surface: clamped cells are degenerate and
// produce no triangles.
func ExtractStream(src PlaneSource, span int) (Layout, []Cell, error) {
	nx, ny, nz, f := src.Dims()
	if span < 2 {
		return Layout{}, nil, fmt.Errorf("metacell: span %d < 2", span)
	}
	l := layoutOf(nx, ny, nz, f, span)
	workers := min(runtime.GOMAXPROCS(0), l.Mz)
	parts := make([][]Cell, workers)
	errs := make([]error, workers)
	var failed atomic.Bool // a range that cannot read a plane stops the others at their next slab row
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = extractSlabs(src, l, i*l.Mz/workers, (i+1)*l.Mz/workers, &failed)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return l, nil, err
		}
	}
	return l, slices.Concat(parts...), nil
}

// arenaRecords is how many records one allocation of a range's arena holds.
const arenaRecords = 256

// extractSlabs extracts the metacells of slab rows [lo, hi) in ID order.
func extractSlabs(src PlaneSource, l Layout, lo, hi int, failed *atomic.Bool) ([]Cell, error) {
	span, f, w := l.Span, l.Fmt, l.Fmt.Bytes()
	nx, ny, nz := l.Nx, l.Ny, l.Nz
	recSize := l.RecordSize()

	// Ring buffer of the last `span` planes, indexed by z % span, and the
	// current slab row's view of it: slab[dz] is the plane a metacell's
	// samples at dz come from, the volume's last where z0+dz is past it.
	planes := make([][]byte, span)
	for i := range planes {
		planes[i] = make([]byte, nx*ny*w)
	}
	slab := make([][]byte, span)
	loaded := lo*(span-1) - 1 // highest plane index read so far
	var cells []Cell
	var arena []byte // what is left of the allocation records are cut from
	for mz := lo; mz < hi && !failed.Load(); mz++ {
		z0 := mz * (span - 1)
		for top := min(z0+span-1, nz-1); loaded < top; {
			loaded++
			if err := src.ReadPlane(loaded, planes[loaded%span]); err != nil {
				failed.Store(true)
				return nil, err
			}
		}
		for dz := range slab {
			slab[dz] = planes[min(z0+dz, nz-1)%span]
		}
		zs := min(span, nz-z0) // planes of the metacell the volume has
		for my := 0; my < l.My; my++ {
			y0 := my * (span - 1)
			ys := min(span, ny-y0)
			for mx := 0; mx < l.Mx; mx++ {
				x0 := mx * (span - 1)
				inside := min(span, nx-x0) * w // bytes of a row the volume has
				at0 := (y0*nx + x0) * w
				pat := broadcast(slab[0][at0 : at0+w])
				same := true
				for dz := 0; dz < zs && same; dz++ {
					same = sameRows(slab[dz], at0, nx*w, ys, inside, pat)
				}
				if same {
					continue // constant metacell: cannot contain surface
				}
				if len(arena) < recSize {
					arena = make([]byte, arenaRecords*recSize)
				}
				rec := arena[:recSize:recSize]
				body := rec[4+w:]
				assemble(body, slab, at0, nx*w, ys, inside, w)
				vmin, vmax := minMax(body, f)
				if !(vmin < vmax) {
					continue // constant by value, or nothing but NaN; the slot is reused
				}
				arena = arena[recSize:]
				id := l.ID(mx, my, mz)
				binary.LittleEndian.PutUint32(rec, id)
				putScalar(rec[4:], f, vmin)
				cells = append(cells, Cell{ID: id, VMin: vmin, VMax: vmax, Record: rec})
			}
		}
	}
	return cells, nil
}

// assemble fills a record's body from the slab: from each plane, len(slab)
// rows of len(slab) samples of w bytes. The volume has ys rows, the first at
// plane[at:] and each stride bytes after the one before, and n bytes of each;
// the last row and the last sample are repeated past them.
func assemble(body []byte, slab [][]byte, at, stride, ys, n, w int) {
	row := len(slab) * w
	for _, plane := range slab {
		for dy := range slab {
			dst := body[:row]
			body = body[row:]
			copy(dst, plane[at+min(dy, ys-1)*stride:][:n])
			for x := n; x < row; x += w {
				copy(dst[x:], dst[n-w:n])
			}
		}
	}
}

// broadcast repeats one sample's 1, 2 or 4 bytes across a word.
func broadcast(sample []byte) uint64 {
	var pat uint64
	for i, b := range sample {
		pat |= uint64(b) << (8 * i)
	}
	for s := 8 * len(sample); s < 64; s *= 2 {
		pat |= pat << s
	}
	return pat
}

// sameRows reports whether `rows` rows of n bytes, the first at plane[at:] and
// each stride bytes after the one before, hold nothing but the sample pat
// repeats. A row is compared a word at a time, its tail by a load that
// overlaps the one before (n and 8 are both multiples of the sample size, so
// the overlapping word is in phase with pat).
func sameRows(plane []byte, at, stride, rows, n int, pat uint64) bool {
	var diff uint64
	for ; rows > 0; rows, at = rows-1, at+stride {
		r := plane[at : at+n]
		if n < 8 {
			for i, b := range r {
				diff |= uint64(b ^ byte(pat>>(8*i)))
			}
			continue
		}
		for i := 0; i+8 < n; i += 8 {
			diff |= binary.LittleEndian.Uint64(r[i:]) ^ pat
		}
		diff |= binary.LittleEndian.Uint64(r[n-8:]) ^ pat
	}
	return diff == 0
}

// minMax returns the smallest and largest of the samples encoded in body,
// which holds at least a word of them (span ≥ 2).
func minMax(body []byte, f volume.Format) (vmin, vmax float32) {
	switch f {
	case volume.U8:
		lo, hi := minMaxLanes(body, 0x8080808080808080, 8)
		return float32(lo), float32(hi)
	case volume.U16:
		lo, hi := minMaxLanes(body, 0x8000800080008000, 16)
		return float32(lo), float32(hi)
	}
	// Floats by comparison, not by min and max: a NaN sample is neither below
	// the minimum nor above the maximum, and moves neither.
	vmin, vmax = float32(math.Inf(1)), float32(math.Inf(-1))
	for i := 0; i < len(body); i += 4 {
		v := math.Float32frombits(binary.LittleEndian.Uint32(body[i:]))
		if v < vmin {
			vmin = v
		}
		if v > vmax {
			vmax = v
		}
	}
	return vmin, vmax
}

// minMaxLanes is the unsigned minimum and maximum of body's little-endian
// samples of `bits` bits each, taken a word of lanes at a time; top has each
// lane's high bit. Two words are ordered lane by lane with one comparison and
// the pair's smaller and larger lanes then meet lo and hi: three comparisons
// for two words, and only the last step waits for the pair before. Minimum
// and maximum do not mind a sample counted twice, so the tail is a pair that
// overlaps the one before, and a body of one word is paired with itself.
func minMaxLanes(body []byte, top uint64, bits uint) (uint64, uint64) {
	n := len(body)
	lo := binary.LittleEndian.Uint64(body)
	hi := lo
	for i := 0; i < n; i += 16 {
		bo := min(i+8, n-8)
		a, b := binary.LittleEndian.Uint64(body[max(bo-8, 0):]), binary.LittleEndian.Uint64(body[bo:])
		m := laneGE(a, b, top, bits)
		small, large := b&m|a&^m, a&m|b&^m
		m = laneGE(small, lo, top, bits)
		lo = lo&m | small&^m
		m = laneGE(large, hi, top, bits)
		hi = large&m | hi&^m
	}
	lane := uint64(1)<<bits - 1
	l, h := lo&lane, hi&lane
	for s := bits; s < 64; s += bits {
		l, h = min(l, lo>>s&lane), max(h, hi>>s&lane)
	}
	return l, h
}

// laneGE has every bit set in the lanes where x's sample is at least y's,
// unsigned, and none in the others.
func laneGE(x, y, top uint64, bits uint) uint64 {
	low := (x | top) - y&^top            // a lane's high bit: x's other bits are at least y's; no borrow leaves a lane
	ge := ((x|^y)&low | x&^y) & top      // where the high bits differ x's decides, where they agree the others do
	return ge | (ge - ge>>((bits-1)&63)) // the high bit spread over its lane; &63 spares the shift a range check
}
