// Package volume implements the regular scalar-grid substrate of the
// pipeline: grid storage for one-, two- and four-byte scalar fields, raw
// (de)serialization, and the deterministic synthetic datasets that stand in
// for the paper's Richtmyer–Meshkov simulation data and the Stanford volume
// archive datasets (see DESIGN.md §2 for the substitution rationale).
package volume

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Format identifies the storage width of a grid's scalar samples.
type Format int

const (
	// U8 is a one-byte unsigned scalar (the Richtmyer–Meshkov format).
	U8 Format = iota
	// U16 is a two-byte little-endian unsigned scalar (CT/MR data).
	U16
	// F32 is a four-byte little-endian IEEE float scalar (simulation fields).
	F32
)

// Bytes returns the per-sample storage size of the format.
func (f Format) Bytes() int {
	switch f {
	case U8:
		return 1
	case U16:
		return 2
	case F32:
		return 4
	}
	panic(fmt.Sprintf("volume: unknown format %d", int(f)))
}

// String returns the conventional name of the format.
func (f Format) String() string {
	switch f {
	case U8:
		return "u8"
	case U16:
		return "u16"
	case F32:
		return "f32"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// Grid is a regular Nx×Ny×Nz scalar field stored x-fastest. All values are
// exposed as float32 regardless of storage format; the format governs only
// the in-memory/on-disk representation and therefore the dataset sizes the
// experiments report.
type Grid struct {
	Nx, Ny, Nz int
	Fmt        Format
	data       []byte
}

// New allocates a zero-filled grid.
func New(nx, ny, nz int, f Format) *Grid {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("volume: non-positive dimensions %d×%d×%d", nx, ny, nz))
	}
	return &Grid{
		Nx:   nx,
		Ny:   ny,
		Nz:   nz,
		Fmt:  f,
		data: make([]byte, nx*ny*nz*f.Bytes()),
	}
}

// Samples returns the total number of samples.
func (g *Grid) Samples() int { return g.Nx * g.Ny * g.Nz }

// SizeBytes returns the raw payload size in bytes.
func (g *Grid) SizeBytes() int64 { return int64(len(g.data)) }

// Plane returns the stored bytes of plane z — Nx·Ny samples, x-fastest, in the
// grid's own format — as a view of the grid, not a copy: read, do not write.
func (g *Grid) Plane(z int) []byte {
	n := g.Nx * g.Ny * g.Fmt.Bytes()
	return g.data[z*n : (z+1)*n : (z+1)*n]
}

// index returns the flat sample index of (x,y,z). Bounds are the caller's
// responsibility; At/Set check them.
func (g *Grid) index(x, y, z int) int {
	return (z*g.Ny+y)*g.Nx + x
}

// InBounds reports whether (x,y,z) addresses a valid sample.
func (g *Grid) InBounds(x, y, z int) bool {
	return x >= 0 && x < g.Nx && y >= 0 && y < g.Ny && z >= 0 && z < g.Nz
}

// At returns the sample at (x,y,z) as a float32.
func (g *Grid) At(x, y, z int) float32 {
	if !g.InBounds(x, y, z) {
		panic(fmt.Sprintf("volume: At(%d,%d,%d) out of bounds %d×%d×%d", x, y, z, g.Nx, g.Ny, g.Nz))
	}
	i := g.index(x, y, z)
	switch g.Fmt {
	case U8:
		return float32(g.data[i])
	case U16:
		return float32(binary.LittleEndian.Uint16(g.data[2*i:]))
	case F32:
		return math.Float32frombits(binary.LittleEndian.Uint32(g.data[4*i:]))
	}
	panic("volume: unknown format")
}

// Set stores v at (x,y,z), clamping to the representable range of the
// storage format (0..255 for U8, 0..65535 for U16).
func (g *Grid) Set(x, y, z int, v float32) {
	if !g.InBounds(x, y, z) {
		panic(fmt.Sprintf("volume: Set(%d,%d,%d) out of bounds %d×%d×%d", x, y, z, g.Nx, g.Ny, g.Nz))
	}
	i := g.index(x, y, z)
	switch g.Fmt {
	case U8:
		g.data[i] = uint8(clamp(v, 0, 255))
	case U16:
		binary.LittleEndian.PutUint16(g.data[2*i:], uint16(clamp(v, 0, 65535)))
	case F32:
		binary.LittleEndian.PutUint32(g.data[4*i:], math.Float32bits(v))
	default:
		panic("volume: unknown format")
	}
}

func clamp(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	// NaN maps to lo: NaN fails both comparisons above, so handle explicitly.
	if v != v {
		return lo
	}
	return v
}

// Fill evaluates f at every sample coordinate and stores the result. It
// hands z-planes to min(GOMAXPROCS, Nz) goroutines from an atomic counter,
// so f is called from several at once and must be a pure function of its
// coordinates; each sample is stored by the one call that computes it, so
// the grid's bytes do not depend on the goroutine count.
func (g *Grid) Fill(f func(x, y, z int) float32) {
	var next atomic.Int64 // the next z-plane to hand out
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), g.Nz) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for z := int(next.Add(1) - 1); z < g.Nz; z = int(next.Add(1) - 1) {
				for y := 0; y < g.Ny; y++ {
					for x := 0; x < g.Nx; x++ {
						g.Set(x, y, z, f(x, y, z))
					}
				}
			}
		}()
	}
	wg.Wait()
}

// MinMax returns the smallest and largest sample values.
func (g *Grid) MinMax() (lo, hi float32) {
	lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				v := g.At(x, y, z)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
	}
	return lo, hi
}

// DistinctValues returns the number of distinct sample values in the grid.
// This is the quantity n that bounds the compact interval tree size.
func (g *Grid) DistinctValues() int {
	seen := make(map[float32]struct{})
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				seen[g.At(x, y, z)] = struct{}{}
			}
		}
	}
	return len(seen)
}
