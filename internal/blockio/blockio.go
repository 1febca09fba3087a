// Package blockio provides the out-of-core storage substrate: a block device
// over a file or over the records a memory Writer keeps where they lie, with
// I/O accounting, and a seek+bandwidth disk cost model.
//
// The paper's platform reads from per-node local disks at 50 MB/s in blocks
// of a few KB; the algorithmic claims are about the *number and contiguity*
// of block accesses. On a modern host the OS page cache would hide those
// properties from wall-clock timing, so every Store counts the blocks and
// seeks each request touches, and a DiskModel converts the counts into the
// seconds the paper's disk would have spent. Experiments report both the
// modeled disk time and the real wall time.
package blockio

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// DefaultBlockSize is the disk block size used throughout the experiments
// (the paper's model assumes 4 KB or 8 KB blocks).
const DefaultBlockSize = 8 * 1024

// Stats aggregates the I/O accounting counters of a device.
type Stats struct {
	Reads      int64 // read requests issued
	BytesRead  int64 // payload bytes returned
	BlocksRead int64 // distinct device blocks touched
	Seeks      int64 // requests that did not continue the previous request
}

// Add returns the element-wise sum of two Stats.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:      s.Reads + o.Reads,
		BytesRead:  s.BytesRead + o.BytesRead,
		BlocksRead: s.BlocksRead + o.BlocksRead,
		Seeks:      s.Seeks + o.Seeks,
	}
}

// Sub returns the element-wise difference s - o. Snapshotting a device's
// counters before an operation and subtracting afterwards attributes the
// interval's I/O, so independent operations on a shared device do not
// clobber each other's accounting.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:      s.Reads - o.Reads,
		BytesRead:  s.BytesRead - o.BytesRead,
		BlocksRead: s.BlocksRead - o.BlocksRead,
		Seeks:      s.Seeks - o.Seeks,
	}
}

// DiskModel converts I/O counters into modeled device time. Every block is
// DefaultBlockSize bytes.
type DiskModel struct {
	SeekTime  time.Duration // cost of each discontiguous request
	Bandwidth float64       // sustained transfer rate, bytes/second
}

// DefaultDiskModel mirrors the paper's per-node disk: 50 MB/s sustained
// bandwidth, 8 KB blocks, and a conventional 8 ms average seek.
func DefaultDiskModel() DiskModel {
	return DiskModel{
		SeekTime:  8 * time.Millisecond,
		Bandwidth: 50 * 1e6,
	}
}

// Time returns the modeled duration of the accesses summarized by st.
func (m DiskModel) Time(st Stats) time.Duration {
	transfer := float64(st.BlocksRead*DefaultBlockSize) / m.Bandwidth
	return time.Duration(transfer*float64(time.Second)) + time.Duration(st.Seeks)*m.SeekTime
}

// Device is the read side of a block store. ReadAt fills p from the byte
// offset off; short reads are errors.
type Device interface {
	ReadAt(p []byte, off int64) error
	Stats() Stats
}

// Store is a Device with block-level accounting over a memory writer's
// records (Writer.Store) or a file (OpenFile). It is safe for concurrent use.
type Store struct {
	r         io.ReaderAt // the records of a memory Writer, or the *os.File
	size      int64
	mu        sync.Mutex
	stats     Stats
	nextBlock int64 // block following the previous request, for seek detection
}

// OpenFile opens path as a block device, for datasets that exceed main
// memory. Accounting is identical to a memory store's.
func OpenFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Store{r: f, size: fi.Size(), nextBlock: -1}, nil
}

// ReadAt fills p with the bytes at [off, off+len(p)) and charges the request
// to the counters: every block overlapping the range counts as read — except
// a block already counted because the previous request ended inside it, so a
// contiguous range fetched as several sequential requests is charged exactly
// the blocks a single request would have been — and the request counts as a
// seek unless it begins in the block that immediately follows the previous
// request's last block (or in that same last block).
func (s *Store) ReadAt(p []byte, off int64) error {
	if off < 0 || off > s.size-int64(len(p)) { // not off+len > size: a hostile offset wraps
		return fmt.Errorf("blockio: read [%d,%d) outside device of size %d", off, off+int64(len(p)), s.size)
	}
	if len(p) == 0 {
		return nil
	}
	if _, err := s.r.ReadAt(p, off); err != nil {
		return fmt.Errorf("blockio: reading [%d,%d): %w", off, off+int64(len(p)), err)
	}
	first := off / DefaultBlockSize
	last := (off + int64(len(p)) - 1) / DefaultBlockSize

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
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close releases a file-backed store's file; it is a no-op for a memory
// store.
func (s *Store) Close() error {
	if c, ok := s.r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
