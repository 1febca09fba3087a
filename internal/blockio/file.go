package blockio

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// Writer appends records sequentially to a new device, the access pattern of
// the preprocessing phase. It reports the byte offset of every record so
// index entries can point at their bricks. A memory writer copies nothing:
// its Store reads the appended slices where they lie (see Append).
type Writer struct {
	f   *os.File // nil when writing to memory
	bw  *bufio.Writer
	mem records
	off int64
}

// NewWriter returns a Writer whose device is the records it is handed.
func NewWriter() *Writer { return &Writer{} }

// CreateFile returns a Writer that streams to a new file at path.
func CreateFile(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<20)}, nil
}

// Offset returns the byte offset at which the next Append will land.
func (w *Writer) Offset() int64 { return w.off }

// Append puts p at the current offset and returns that offset. A memory
// writer keeps p itself, not a copy: the caller must not change p afterwards.
func (w *Writer) Append(p []byte) (int64, error) {
	off := w.off
	if w.f != nil {
		if _, err := w.bw.Write(p); err != nil {
			return 0, fmt.Errorf("blockio: appending to %s: %w", w.f.Name(), err)
		}
	} else if len(p) > 0 {
		if len(w.mem) == cap(w.mem) { // double: the table is all a memory writer allocates
			w.mem = append(make(records, 0, 2*len(w.mem)+1), w.mem...)
		}
		w.mem = append(w.mem, record{off: off, p: p})
	}
	w.off += int64(len(p))
	return off, nil
}

// Store returns a memory writer's device: a fresh Store, with its own
// counters, over the records appended so far. It panics for file-backed
// writers, whose device is the file (OpenFile, after Close).
func (w *Writer) Store() *Store {
	if w.f != nil {
		panic("blockio: Store on a file-backed Writer")
	}
	return &Store{r: w.mem, size: w.off, nextBlock: -1}
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

// records is a memory device: the appended records in offset order, each
// starting where the one before it ends. Empty records are not kept.
type records []record

type record struct {
	off int64
	p   []byte
}

// ReadAt copies [off, off+len(p)) out of the records it overlaps. Store has
// checked that the range lies inside the device.
func (rs records) ReadAt(p []byte, off int64) (int, error) {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].off+int64(len(rs[i].p)) > off })
	n := 0
	for ; n < len(p); i++ {
		n += copy(p[n:], rs[i].p[off+int64(n)-rs[i].off:])
	}
	return n, nil
}
