// Package metacell partitions a scalar volume into the fixed-size metacells
// the paper's indexing scheme is built on.
//
// A metacell is a cube of Span×Span×Span samples covering (Span-1)³ cells;
// adjacent metacells share one boundary sample layer so extraction is
// crack-free. With the paper's Span = 9 and one-byte scalars, an encoded
// record is 4 (ID) + 1 (vmin) + 729 (samples) = 734 bytes, exactly the
// paper's figure. Metacells whose samples are all equal cannot intersect any
// isosurface and are dropped during preprocessing; on Richtmyer–Meshkov-like
// data this discards roughly half of the volume.
package metacell

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/volume"
)

// DefaultSpan is the paper's metacell edge length in samples (9×9×9 samples,
// 8×8×8 cells).
const DefaultSpan = 9

// Layout describes the metacell decomposition of one volume and the binary
// record format of its metacells.
type Layout struct {
	Span       int           // samples per metacell edge
	Fmt        volume.Format // scalar storage format
	Nx, Ny, Nz int           // volume sample dimensions
	Mx, My, Mz int           // metacell grid dimensions
}

// NewLayout computes the decomposition of a volume into metacells of the
// given span. span must be at least 2.
func NewLayout(g *volume.Grid, span int) Layout {
	if span < 2 {
		panic(fmt.Sprintf("metacell: span %d < 2", span))
	}
	cells := span - 1 // cells covered per metacell edge
	return Layout{
		Span: span,
		Fmt:  g.Fmt,
		Nx:   g.Nx, Ny: g.Ny, Nz: g.Nz,
		Mx: ceilDiv(g.Nx-1, cells),
		My: ceilDiv(g.Ny-1, cells),
		Mz: ceilDiv(g.Nz-1, cells),
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Count returns the total number of metacells in the decomposition.
func (l Layout) Count() int { return l.Mx * l.My * l.Mz }

// RecordSize returns the encoded size of one metacell in bytes.
func (l Layout) RecordSize() int {
	return 4 + l.Fmt.Bytes() + l.Span*l.Span*l.Span*l.Fmt.Bytes()
}

// ID maps metacell grid coordinates to the linear metacell ID.
func (l Layout) ID(mx, my, mz int) uint32 {
	return uint32((mz*l.My+my)*l.Mx + mx)
}

// Coords inverts ID.
func (l Layout) Coords(id uint32) (mx, my, mz int) {
	i := int(id)
	mx = i % l.Mx
	i /= l.Mx
	my = i % l.My
	mz = i / l.My
	return mx, my, mz
}

// Origin returns the volume sample coordinates of the metacell's first
// sample.
func (l Layout) Origin(id uint32) (x, y, z int) {
	mx, my, mz := l.Coords(id)
	c := l.Span - 1
	return mx * c, my * c, mz * c
}

// Cell is one extracted metacell: its interval, plus the encoded on-disk
// record (ID, vmin, then Span³ samples, x-fastest, boundary-clamped).
type Cell struct {
	ID         uint32
	VMin, VMax float32
	Record     []byte
}

// Extract decomposes g into metacells, dropping constant ones. The returned
// cells appear in ID order. Samples beyond the volume boundary (when the
// dimensions are not a multiple of Span-1) are clamped to the nearest edge
// sample, which keeps every record the same size without creating spurious
// surface: clamped cells are degenerate and produce no triangles.
func Extract(g *volume.Grid, span int) (Layout, []Cell) {
	l := NewLayout(g, span)
	cells := make([]Cell, 0, l.Count())
	buf := make([]float32, span*span*span)
	for mz := 0; mz < l.Mz; mz++ {
		for my := 0; my < l.My; my++ {
			for mx := 0; mx < l.Mx; mx++ {
				id := l.ID(mx, my, mz)
				vmin, vmax := readSamples(g, l, id, buf)
				if vmin == vmax {
					continue // constant metacell: cannot contain surface
				}
				cells = append(cells, Cell{
					ID:     id,
					VMin:   vmin,
					VMax:   vmax,
					Record: encodeRecord(l, id, vmin, buf),
				})
			}
		}
	}
	return l, cells
}

// readSamples loads the metacell's Span³ samples into buf (boundary-clamped)
// and returns their min and max.
func readSamples(g *volume.Grid, l Layout, id uint32, buf []float32) (vmin, vmax float32) {
	ox, oy, oz := l.Origin(id)
	vmin = float32(math.Inf(1))
	vmax = float32(math.Inf(-1))
	i := 0
	for dz := 0; dz < l.Span; dz++ {
		z := clampInt(oz+dz, g.Nz-1)
		for dy := 0; dy < l.Span; dy++ {
			y := clampInt(oy+dy, g.Ny-1)
			for dx := 0; dx < l.Span; dx++ {
				x := clampInt(ox+dx, g.Nx-1)
				v := g.At(x, y, z)
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
	return vmin, vmax
}

func clampInt(v, hi int) int {
	if v > hi {
		return hi
	}
	return v
}

// encodeRecord serializes (id, vmin, samples) in the layout's scalar format.
func encodeRecord(l Layout, id uint32, vmin float32, samples []float32) []byte {
	w := l.Fmt.Bytes()
	rec := make([]byte, l.RecordSize())
	binary.LittleEndian.PutUint32(rec, id)
	putScalar(rec[4:], l.Fmt, vmin)
	off := 4 + w
	for _, s := range samples {
		putScalar(rec[off:], l.Fmt, s)
		off += w
	}
	return rec
}

// Meta is a decoded metacell ready for triangulation.
type Meta struct {
	ID      uint32
	VMin    float32
	Samples []float32 // Span³ values, x-fastest
}

// DecodeRecord parses an encoded metacell record. The samples slice is
// freshly allocated; use DecodeRecordInto to reuse buffers in hot loops.
func DecodeRecord(l Layout, rec []byte) (Meta, error) {
	var m Meta
	m.Samples = make([]float32, l.Span*l.Span*l.Span)
	if err := DecodeRecordInto(l, rec, &m); err != nil {
		return Meta{}, err
	}
	return m, nil
}

// DecodeRecordInto parses rec into m, reusing m.Samples if it has the right
// length. The sample loops are specialized per scalar format — the format is
// fixed for a layout, so the hot path must not re-dispatch on it once per
// sample.
//
// Records come from disk, so one that does not belong to the layout is an
// error, never a guess: the wrong size, or an ID outside the metacell grid —
// which the triangulator would place outside the volume and silently drop. m
// is written in full or, on error, not at all.
func DecodeRecordInto(l Layout, rec []byte, m *Meta) error {
	if len(rec) != l.RecordSize() {
		return fmt.Errorf("metacell: record size %d, layout wants %d", len(rec), l.RecordSize())
	}
	id := binary.LittleEndian.Uint32(rec)
	if int64(id) >= int64(l.Count()) {
		return fmt.Errorf("metacell: record names metacell %d, layout has %d", id, l.Count())
	}
	n := l.Span * l.Span * l.Span
	if len(m.Samples) != n {
		m.Samples = make([]float32, n)
	}
	m.ID = id
	m.VMin = getScalar(rec[4:], l.Fmt)
	w := l.Fmt.Bytes()
	body := rec[4+w : 4+w+n*w]
	out := m.Samples
	switch l.Fmt {
	case volume.U8:
		for i, b := range body {
			out[i] = float32(b)
		}
	case volume.U16:
		for i := range out {
			out[i] = float32(binary.LittleEndian.Uint16(body[2*i:]))
		}
	case volume.F32:
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		}
	default:
		panic("metacell: unknown format")
	}
	return nil
}

// VMinOfRecord extracts just the vmin field, the only field the Case-2 scan
// needs before deciding whether to decode the rest.
func VMinOfRecord(l Layout, rec []byte) float32 {
	return getScalar(rec[4:], l.Fmt)
}

// IDOfRecord extracts just the metacell ID field.
func IDOfRecord(rec []byte) uint32 { return binary.LittleEndian.Uint32(rec) }

func putScalar(dst []byte, f volume.Format, v float32) {
	switch f {
	case volume.U8:
		dst[0] = uint8(v)
	case volume.U16:
		binary.LittleEndian.PutUint16(dst, uint16(v))
	case volume.F32:
		binary.LittleEndian.PutUint32(dst, math.Float32bits(v))
	default:
		panic("metacell: unknown format")
	}
}

func getScalar(src []byte, f volume.Format) float32 {
	switch f {
	case volume.U8:
		return float32(src[0])
	case volume.U16:
		return float32(binary.LittleEndian.Uint16(src))
	case volume.F32:
		return math.Float32frombits(binary.LittleEndian.Uint32(src))
	default:
		panic("metacell: unknown format")
	}
}
