package metacell

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

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
	// with plane z.
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
// reading each plane on demand so memory stays O(nx·ny·span).
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

// ExtractStream decomposes a streamed volume into metacells, emitting each
// non-constant metacell to visit in ID order. It holds only span z-planes in
// memory (a ring buffer of O(nx·ny·span) samples, as stored).
//
// A record's sample rows are the volume's own bytes: each row is one copy of
// the samples the volume has for it, and where the metacell reaches past the
// volume's +x, +y or +z face (dimensions that are not a multiple of span-1)
// the last sample, row or plane inside is repeated, which clamps every
// coordinate to the nearest edge sample. That keeps every record the same
// size without creating spurious surface: clamped cells are degenerate and
// produce no triangles. The interval is taken over the record's samples.
func ExtractStream(src PlaneSource, span int, visit func(Cell) error) (Layout, error) {
	nx, ny, nz, f := src.Dims()
	if span < 2 {
		return Layout{}, fmt.Errorf("metacell: span %d < 2", span)
	}
	l := layoutOf(nx, ny, nz, f, span)
	w := f.Bytes()
	row := span * w // bytes of one sample row of a record

	// Ring buffer of the last `span` planes, indexed by z % span.
	planes := make([][]byte, span)
	for i := range planes {
		planes[i] = make([]byte, nx*ny*w)
	}
	loaded := -1   // highest plane index read so far
	var rec []byte // the record being assembled; a dropped metacell's is reused
	for mz := 0; mz < l.Mz; mz++ {
		z0 := mz * (span - 1)
		for top := min(z0+span-1, nz-1); loaded < top; {
			loaded++
			if err := src.ReadPlane(loaded, planes[loaded%span]); err != nil {
				return l, err
			}
		}
		for my := 0; my < l.My; my++ {
			y0 := my * (span - 1)
			for mx := 0; mx < l.Mx; mx++ {
				x0 := mx * (span - 1)
				inside := min(span, nx-x0) * w // bytes of a row the volume has
				if rec == nil {
					rec = make([]byte, l.RecordSize())
				}
				body := rec[4+w:]
				for dz := 0; dz < span; dz++ {
					plane := planes[min(z0+dz, nz-1)%span]
					for dy := 0; dy < span; dy++ {
						at := (min(y0+dy, ny-1)*nx + x0) * w
						dst := body[(dz*span+dy)*row:][:row]
						copy(dst, plane[at:at+inside])
						for x := inside; x < row; x += w {
							copy(dst[x:], dst[inside-w:inside])
						}
					}
				}
				vmin, vmax := minMax(body, f)
				if vmin == vmax {
					continue // constant metacell: cannot contain surface
				}
				id := l.ID(mx, my, mz)
				binary.LittleEndian.PutUint32(rec, id)
				putScalar(rec[4:], f, vmin)
				c := Cell{ID: id, VMin: vmin, VMax: vmax, Record: rec}
				rec = nil
				if err := visit(c); err != nil {
					return l, err
				}
			}
		}
	}
	return l, nil
}

// minMax returns the smallest and largest of the samples encoded in body.
func minMax(body []byte, f volume.Format) (vmin, vmax float32) {
	switch f {
	case volume.U8:
		lo, hi := body[0], body[0]
		for _, b := range body {
			lo, hi = min(lo, b), max(hi, b)
		}
		return float32(lo), float32(hi)
	case volume.U16:
		lo, hi := uint16(math.MaxUint16), uint16(0)
		for i := 0; i < len(body); i += 2 {
			v := binary.LittleEndian.Uint16(body[i:])
			lo, hi = min(lo, v), max(hi, v)
		}
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
