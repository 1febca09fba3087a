package volume

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
)

// fileMagic identifies the on-disk volume header ("VOL1").
const fileMagic = 0x564f4c31

// Write serializes the grid (the fixed header followed by the raw x-fastest
// sample payload) to w.
func (g *Grid) Write(w io.Writer) error {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(g.Fmt))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(g.Nx))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(g.Ny))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(g.Nz))
	binary.LittleEndian.PutUint32(hdr[20:], 0) // reserved
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("volume: writing header: %w", err)
	}
	if _, err := w.Write(g.data); err != nil {
		return fmt.Errorf("volume: writing payload: %w", err)
	}
	return nil
}

// HeaderSize is the length of a volume file's header; the x-fastest sample
// payload follows it.
const HeaderSize = 24

// ErrBadHeader is what every reader of a volume file returns, wrapped, for a
// header that cannot be a volume's: wrong magic, an unknown scalar format,
// an empty dimension, or a payload whose size overflows int.
var ErrBadHeader = errors.New("volume: bad header")

// Header is what a volume file says about itself before its first sample.
type Header struct {
	Nx, Ny, Nz int
	Fmt        Format
}

// ReadHeader reads and checks a volume file's header: the one parser of it,
// for readers that load the payload (Read) and readers that stream it. A
// Header it returns has a known format, positive dimensions, and a payload
// size that fits an int — which says nothing yet about whether the file
// holds that much.
func ReadHeader(r io.Reader) (Header, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Header{}, fmt.Errorf("volume: reading header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != fileMagic {
		return Header{}, fmt.Errorf("%w: magic %#x", ErrBadHeader, m)
	}
	f := binary.LittleEndian.Uint32(hdr[4:])
	if Format(f) != U8 && Format(f) != U16 && Format(f) != F32 {
		return Header{}, fmt.Errorf("%w: scalar format %d", ErrBadHeader, f)
	}
	h := Header{
		Nx:  int(binary.LittleEndian.Uint32(hdr[8:])),
		Ny:  int(binary.LittleEndian.Uint32(hdr[12:])),
		Nz:  int(binary.LittleEndian.Uint32(hdr[16:])),
		Fmt: Format(f),
	}
	if _, ok := payloadBytes(h.Nx, h.Ny, h.Nz, h.Fmt); !ok {
		return Header{}, fmt.Errorf("%w: dimensions %d×%d×%d", ErrBadHeader, h.Nx, h.Ny, h.Nz)
	}
	return h, nil
}

// payloadBytes returns nx·ny·nz samples of format f in bytes; ok is false for
// a dimension that is not positive or a product that does not fit an int.
func payloadBytes(nx, ny, nz int, f Format) (n int, ok bool) {
	size := uint64(f.Bytes())
	for _, d := range [3]int{nx, ny, nz} {
		if d <= 0 {
			return 0, false
		}
		hi, lo := bits.Mul64(size, uint64(d))
		if hi != 0 || lo > math.MaxInt {
			return 0, false
		}
		size = lo
	}
	return int(size), true
}

// PlaneBytes returns the size of one z-plane of the payload.
func (h Header) PlaneBytes() int { return h.Nx * h.Ny * h.Fmt.Bytes() }

// PayloadBytes returns the size of the whole payload.
func (h Header) PayloadBytes() int { return h.PlaneBytes() * h.Nz }

// readChunk is how much payload Read makes room for before it has read any.
const readChunk = 64 << 10

// Read deserializes a grid written by Write. The header only says how long
// the payload should be: room for it is made as it arrives, doubling, so a
// short input costs memory in proportion to itself and not to its claim.
func Read(r io.Reader) (*Grid, error) {
	h, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	want := h.PayloadBytes()
	data := make([]byte, 0, min(want, readChunk))
	for len(data) < want {
		if len(data) == cap(data) {
			data = slices.Grow(data, min(want-len(data), len(data)))
		}
		room := data[len(data):min(cap(data), want)]
		n, err := io.ReadFull(r, room)
		data = data[:len(data)+n]
		if err != nil {
			return nil, fmt.Errorf("volume: reading payload: %d of %d bytes: %w", len(data), want, err)
		}
	}
	return &Grid{Nx: h.Nx, Ny: h.Ny, Nz: h.Nz, Fmt: h.Fmt, data: data}, nil
}

// WriteFile writes the grid to path, creating or truncating it.
func (g *Grid) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := g.Write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a grid from path.
func ReadFile(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(bufio.NewReaderSize(f, 1<<20))
}

// ReadRaw reads a headerless raw volume (the distribution format of the
// Stanford volume archive and volvis datasets: x-fastest samples, nothing
// else) with caller-supplied dimensions and scalar format. The file size
// must match exactly.
func ReadRaw(path string, nx, ny, nz int, f Format) (*Grid, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	want, ok := payloadBytes(nx, ny, nz, f)
	if !ok {
		return nil, fmt.Errorf("volume: bad raw dimensions %d×%d×%d", nx, ny, nz)
	}
	if len(data) != want {
		return nil, fmt.Errorf("volume: %s is %d bytes, %d×%d×%d %s needs %d",
			path, len(data), nx, ny, nz, f, want)
	}
	g := New(nx, ny, nz, f)
	copy(g.data, data)
	return g, nil
}

// WriteRaw writes just the sample payload (no header), producing a file
// readable by other volume tools and by ReadRaw.
func (g *Grid) WriteRaw(path string) error {
	return os.WriteFile(path, g.data, 0o644)
}
