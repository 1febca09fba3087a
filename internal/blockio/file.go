package blockio

import (
	"bufio"
	"fmt"
	"os"
	"slices"
)

// Writer appends records sequentially to a new device image, the access
// pattern of the preprocessing phase. It reports the byte offset of every
// record so index entries can point at their bricks.
type Writer struct {
	f   *os.File // nil when writing to memory
	bw  *bufio.Writer
	mem []byte
	off int64
}

// NewWriter returns a Writer that accumulates an in-memory device image,
// retrievable with Bytes.
func NewWriter() *Writer { return &Writer{} }

// CreateFile returns a Writer that streams to a new file at path.
func CreateFile(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<20)}, nil
}

// Reserve makes room in a memory writer's image for n more bytes, so that a
// caller who knows how much it is about to append pays for one allocation and
// no copy of what is already there. A file-backed writer ignores it.
func (w *Writer) Reserve(n int) {
	if w.f == nil {
		w.mem = slices.Grow(w.mem, n)
	}
}

// Offset returns the byte offset at which the next Append will land.
func (w *Writer) Offset() int64 { return w.off }

// Append writes p at the current offset and returns that offset.
func (w *Writer) Append(p []byte) (int64, error) {
	off := w.off
	if w.f != nil {
		if _, err := w.bw.Write(p); err != nil {
			return 0, fmt.Errorf("blockio: appending to %s: %w", w.f.Name(), err)
		}
	} else {
		w.mem = append(w.mem, p...)
	}
	w.off += int64(len(p))
	return off, nil
}

// Bytes returns the in-memory image accumulated so far. It panics for
// file-backed writers.
func (w *Writer) Bytes() []byte {
	if w.f != nil {
		panic("blockio: Bytes on a file-backed Writer")
	}
	return w.mem
}

// Close flushes and closes a file-backed writer; it is a no-op for memory
// writers.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
