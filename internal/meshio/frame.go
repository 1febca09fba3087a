package meshio

import (
	"encoding/binary"
	"hash/crc32"
	"io"

	"repro/internal/geom"
)

// Frame is a sealed checksummed frame: the 20-byte prefix + header, the
// payload as views of the meshes' own triangle memory, and the CRC32-C
// trailer, computed once at Seal. Its bytes are exactly
// EncodeBinaryChecksum's for the same arguments, but sealing copies no
// triangle and writing a Frame allocates nothing — what a cache hit costs is
// the socket write. A Frame is immutable and safe for concurrent WriteTo; it
// keeps the meshes alive and reads them on every write, so they must not be
// modified while the Frame is in use.
type Frame struct {
	hdr     [binMinFrame]byte
	payload [][]byte // one part per non-empty mesh, in argument order
	crc     [binCRCSize]byte
	size    int
}

// Seal builds the checksummed frame of the given meshes' concatenated
// triangles (argument order, like AppendBinaryChecksum). On a host whose
// triangle layout is not the wire layout the payload is transcoded into one
// private buffer instead of viewed in place; the frame's bytes are the same.
func Seal(iso float32, meshes ...*geom.Mesh) *Frame {
	f := &Frame{payload: make([][]byte, 0, len(meshes))}
	tris := 0
	for _, m := range meshes {
		if len(m.Tris) == 0 {
			continue
		}
		tris += len(m.Tris)
		part, ok := triBytes(m.Tris)
		if !ok {
			part = putTris(make([]byte, 0, len(m.Tris)*binTriSize), m.Tris)
		}
		f.payload = append(f.payload, part)
	}
	f.hdr = frameHeader(iso, FlagChecksum, tris)
	f.size = frameSize(FlagChecksum, tris)
	sum := crc32.Update(0, crcTable, f.hdr[binPrefixSize:])
	for _, part := range f.payload {
		sum = crc32.Update(sum, crcTable, part)
	}
	binary.LittleEndian.PutUint32(f.crc[:], sum)
	return f
}

// Len returns the frame's size on the wire, length prefix and trailer
// included — the Content-Length of a response carrying it.
func (f *Frame) Len() int { return f.size }

// WriteTo writes the whole frame to w: header, each payload part, trailer.
func (f *Frame) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(f.hdr[:])
	written := int64(n)
	for i := 0; err == nil && i < len(f.payload); i++ {
		n, err = w.Write(f.payload[i])
		written += int64(n)
	}
	if err == nil {
		n, err = w.Write(f.crc[:])
		written += int64(n)
	}
	return written, err
}
