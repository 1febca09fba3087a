// Package blockio provides the out-of-core storage substrate: a file-backed
// block device with I/O accounting and a seek+bandwidth disk cost model.
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
	CacheHits  int64 // blocks served from a Cache wrapper without device I/O
	CacheMiss  int64 // blocks a Cache wrapper had to fetch from its inner device
}

// Add returns the element-wise sum of two Stats.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:      s.Reads + o.Reads,
		BytesRead:  s.BytesRead + o.BytesRead,
		BlocksRead: s.BlocksRead + o.BlocksRead,
		Seeks:      s.Seeks + o.Seeks,
		CacheHits:  s.CacheHits + o.CacheHits,
		CacheMiss:  s.CacheMiss + o.CacheMiss,
	}
}

// Sub returns the element-wise difference s - o. Snapshotting a device's
// counters before an operation and subtracting afterwards attributes the
// interval's I/O without ResetStats, so independent operations on a shared
// device do not clobber each other's accounting.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:      s.Reads - o.Reads,
		BytesRead:  s.BytesRead - o.BytesRead,
		BlocksRead: s.BlocksRead - o.BlocksRead,
		Seeks:      s.Seeks - o.Seeks,
		CacheHits:  s.CacheHits - o.CacheHits,
		CacheMiss:  s.CacheMiss - o.CacheMiss,
	}
}

// DiskModel converts I/O counters into modeled device time.
type DiskModel struct {
	BlockSize int           // bytes per block
	SeekTime  time.Duration // cost of each discontiguous request
	Bandwidth float64       // sustained transfer rate, bytes/second
}

// DefaultDiskModel mirrors the paper's per-node disk: 50 MB/s sustained
// bandwidth, 8 KB blocks, and a conventional 8 ms average seek.
func DefaultDiskModel() DiskModel {
	return DiskModel{
		BlockSize: DefaultBlockSize,
		SeekTime:  8 * time.Millisecond,
		Bandwidth: 50 * 1e6,
	}
}

// Time returns the modeled duration of the accesses summarized by st.
func (m DiskModel) Time(st Stats) time.Duration {
	transfer := float64(st.BlocksRead*int64(m.BlockSize)) / m.Bandwidth
	return time.Duration(transfer*float64(time.Second)) + time.Duration(st.Seeks)*m.SeekTime
}

// Device is the read side of a block store. ReadAt fills p from the byte
// offset off; short reads are errors.
type Device interface {
	ReadAt(p []byte, off int64) error
	Size() int64
	Stats() Stats
	ResetStats()
}

// Store is a file- or memory-backed Device with block-level accounting.
// It is safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	data      []byte // entire device image
	blockSize int
	stats     Stats
	nextBlock int64 // block following the previous request, for seek detection
}

// NewStore wraps an in-memory device image. The pipeline keeps the brick
// files memory-resident for speed; all out-of-core accounting happens at
// this layer, so the experiments still measure exactly the block accesses a
// real disk would perform.
func NewStore(data []byte, blockSize int) *Store {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Store{data: data, blockSize: blockSize, nextBlock: -1}
}

// BlockSize returns the device's block size in bytes.
func (s *Store) BlockSize() int { return s.blockSize }

// Size returns the device size in bytes.
func (s *Store) Size() int64 { return int64(len(s.data)) }

// ReadAt fills p with the bytes at [off, off+len(p)) and charges the request
// to the counters: every block overlapping the range counts as read — except
// a block already counted because the previous request ended inside it, so a
// contiguous range fetched as several sequential requests is charged exactly
// the blocks a single request would have been — and the request counts as a
// seek unless it begins in the block that immediately follows the previous
// request's last block (or in that same last block).
func (s *Store) ReadAt(p []byte, off int64) error {
	if off < 0 || off > int64(len(s.data))-int64(len(p)) { // not off+len > size: a hostile offset wraps
		return fmt.Errorf("blockio: read [%d,%d) outside device of size %d", off, off+int64(len(p)), len(s.data))
	}
	copy(p, s.data[off:])
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
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the counters and the sequential-access tracker.
func (s *Store) ResetStats() {
	s.mu.Lock()
	s.stats = Stats{}
	s.nextBlock = -1
	s.mu.Unlock()
}
