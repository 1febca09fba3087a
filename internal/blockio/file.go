package blockio

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
)

// FileStore is a Device backed by a real file, for datasets that exceed main
// memory. Accounting is identical to Store.
type FileStore struct {
	mu        sync.Mutex
	f         *os.File
	size      int64
	blockSize int
	stats     Stats
	nextBlock int64
}

// OpenFile opens path as a block device.
func OpenFile(path string, blockSize int) (*FileStore, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileStore{f: f, size: fi.Size(), blockSize: blockSize, nextBlock: -1}, nil
}

// BlockSize returns the device's block size in bytes.
func (s *FileStore) BlockSize() int { return s.blockSize }

// Size returns the file size in bytes.
func (s *FileStore) Size() int64 { return s.size }

// ReadAt implements Device with the same accounting rules as Store.ReadAt.
func (s *FileStore) ReadAt(p []byte, off int64) error {
	if off < 0 || off > s.size-int64(len(p)) { // not off+len > size: a hostile offset wraps
		return fmt.Errorf("blockio: read [%d,%d) outside device of size %d", off, off+int64(len(p)), s.size)
	}
	if _, err := s.f.ReadAt(p, off); err != nil {
		return fmt.Errorf("blockio: reading %s: %w", s.f.Name(), err)
	}
	if len(p) == 0 {
		return nil
	}
	first := off / int64(s.blockSize)
	last := (off + int64(len(p)) - 1) / int64(s.blockSize)
	s.mu.Lock()
	s.stats.Reads++
	s.stats.BytesRead += int64(len(p))
	blocks := last - first + 1
	if first == s.nextBlock-1 {
		blocks-- // continuation within the previously counted block
	} else if first != s.nextBlock {
		s.stats.Seeks++
	}
	s.stats.BlocksRead += blocks
	s.nextBlock = last + 1
	s.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the counters.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the counters and the sequential-access tracker.
func (s *FileStore) ResetStats() {
	s.mu.Lock()
	s.stats = Stats{}
	s.nextBlock = -1
	s.mu.Unlock()
}

// Close releases the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }

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
