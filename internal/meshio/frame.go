package meshio

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

// Frame is a sealed checksummed version 2 frame: the 20-byte prefix +
// header, the payload as views of the chunk buffers it was sealed over, and
// the CRC32-C trailer, computed once at Seal. Sealing copies no chunk and
// writing a Frame allocates nothing — what a cache hit costs is the socket
// write. A Frame is immutable and safe for concurrent WriteTo; it keeps the
// chunk buffers alive and reads them on every write, so they must not be
// modified while the Frame is in use.
type Frame struct {
	hdr     [binMinFrame]byte
	payload [][]byte // one part per non-empty chunk buffer, in argument order
	crc     [binCRCSize]byte
	size    int
}

// Seal builds the checksummed version 2 frame of the given chunk buffers —
// each a sequence of PutChunk chunks, such as one node's
// cluster.NodeResult.Chunks — in argument order. It walks the chunk headers
// for the triangle total and panics on a buffer PutChunk did not write.
func Seal(iso float32, chunks ...[]byte) *Frame {
	f := &Frame{payload: make([][]byte, 0, len(chunks))}
	tris, payload := 0, 0
	for _, part := range chunks {
		if len(part) == 0 {
			continue
		}
		n, _, err := walkChunks(part)
		if err != nil {
			panic("meshio: Seal of bytes that are not chunks: " + err.Error())
		}
		tris += n
		payload += len(part)
		f.payload = append(f.payload, part)
	}
	f.hdr = frameHeader(ChunkedVersion, iso, FlagChecksum, tris, payload)
	f.size = framedSize(FlagChecksum, payload)
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
