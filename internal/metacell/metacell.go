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
	return layoutOf(g.Nx, g.Ny, g.Nz, g.Fmt, span)
}

// layoutOf is the decomposition of an nx×ny×nz volume of format f.
func layoutOf(nx, ny, nz int, f volume.Format, span int) Layout {
	cells := span - 1 // cells covered per metacell edge
	return Layout{
		Span: span,
		Fmt:  f,
		Nx:   nx, Ny: ny, Nz: nz,
		Mx: ceilDiv(nx-1, cells),
		My: ceilDiv(ny-1, cells),
		Mz: ceilDiv(nz-1, cells),
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

// Extract decomposes g into metacells, dropping constant ones: ExtractStream
// over the grid's planes.
func Extract(g *volume.Grid, span int) (Layout, []Cell) {
	l, cells, err := ExtractStream(SourceFromGrid(g), span)
	if err != nil {
		panic(err) // a grid has every plane it says it has: only a span below 2 gets here
	}
	return l, cells
}

// EncodeRecord serializes (id, vmin, samples) in the layout's scalar format,
// sample by sample: the reference for what the extractor assembles from the
// volume's bytes and for what DecodeRecordInto reads back.
func EncodeRecord(l Layout, id uint32, vmin float32, samples []float32) []byte {
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
	id, err := CheckRecord(l, rec)
	if err != nil {
		return err
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

// CheckRecord is the whole of what makes a record the layout's — its size,
// and an ID inside the metacell grid — and returns that ID. Whoever reads a
// record's samples without decoding it calls this first.
func CheckRecord(l Layout, rec []byte) (id uint32, err error) {
	if len(rec) != l.RecordSize() {
		return 0, fmt.Errorf("metacell: record size %d, layout wants %d", len(rec), l.RecordSize())
	}
	id = binary.LittleEndian.Uint32(rec)
	if int64(id) >= int64(l.Count()) {
		return 0, fmt.Errorf("metacell: record names metacell %d, layout has %d", id, l.Count())
	}
	return id, nil
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
