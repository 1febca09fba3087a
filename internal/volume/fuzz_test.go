package volume

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// fuzzHeader is a volume header making the given claims.
func fuzzHeader(format, nx, ny, nz uint32) []byte {
	b := make([]byte, HeaderSize)
	for i, v := range []uint32{fileMagic, format, nx, ny, nz, 0} {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	return b
}

// FuzzRead feeds Read bytes a volume file may hold. A rejection is a typed
// error and never a panic; either way Read allocates in proportion to the
// input, not to the payload the header claims; and a grid it accepts has the
// header's shape, can be sampled at its far corner, and writes back to the
// bytes it was read from.
func FuzzRead(f *testing.F) {
	for _, fm := range []Format{U8, U16, F32} {
		g := New(5, 4, 3, fm)
		g.Fill(func(x, y, z int) float32 { return float32(x*100 + y*10 + z) })
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1]) // one byte short
		f.Add(buf.Bytes()[:HeaderSize])  // a header and nothing else
	}
	f.Add(fuzzHeader(uint32(F32), 1<<11, 1<<11, 1<<10))                              // 16 GiB claimed
	f.Add(fuzzHeader(uint32(U8), 1<<22, 1<<22, 1<<22))                               // the product wraps to 4 in 64 bits
	f.Add(fuzzHeader(uint32(F32), math.MaxUint32, math.MaxUint32, math.MaxUint32))   // wraps in any width
	f.Add(fuzzHeader(7, 4, 4, 4))                                                    // no such format
	f.Add(fuzzHeader(uint32(U16), 3, 0, 3))                                          // an empty dimension
	f.Add(append(fuzzHeader(uint32(U8), 1<<20, 1<<10, 1), make([]byte, 200<<10)...)) // 1 GiB claimed, 200 KiB there
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+4*len(data)); alloc > budget {
			t.Fatalf("Read allocated %d B for %d B of input (budget %d)", alloc, len(data), budget)
		}
		if err != nil {
			if !errors.Is(err, ErrBadHeader) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if g.Samples()*g.Fmt.Bytes() != int(g.SizeBytes()) || HeaderSize+int(g.SizeBytes()) > len(data) {
			t.Fatalf("%d×%d×%d %v grid of %d bytes from %d bytes of input", g.Nx, g.Ny, g.Nz, g.Fmt, g.SizeBytes(), len(data))
		}
		g.At(g.Nx-1, g.Ny-1, g.Nz-1)
		var back bytes.Buffer
		if err := g.Write(&back); err != nil || !bytes.Equal(back.Bytes()[:4], data[:4]) ||
			!bytes.Equal(back.Bytes()[4:20], data[4:20]) || !bytes.Equal(back.Bytes()[HeaderSize:], data[HeaderSize:back.Len()]) {
			t.Fatalf("Write (err %v) does not give back the %d bytes read", err, back.Len())
		}
	})
}
