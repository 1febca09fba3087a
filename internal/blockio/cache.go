package blockio

import (
	"container/list"
	"fmt"
	"sync"
)

// Cache is a Device wrapper holding an LRU set of the inner device's blocks
// in memory. Repeated sweeps over the same index and brick regions —
// animation loops, time-varying browsing, isovalue scans — hit the cache and
// skip the inner device entirely, which a real cluster node would likewise
// get from its buffer cache. Hits and misses are reported through the
// CacheHits/CacheMiss fields of Stats; the remaining counters are the inner
// device's, so modeled disk time shrinks exactly by the avoided I/O.
//
// Cache contents survive ResetStats (only the counters clear), matching the
// warm-cache behavior the wrapper exists to model. It is safe for concurrent
// use.
type Cache struct {
	mu        sync.Mutex
	inner     Device
	blockSize int
	capacity  int                     // maximum cached blocks
	blocks    map[int64]*list.Element // block index → lru element
	lru       *list.List              // front = most recently used
	hits      int64
	misses    int64
}

// cacheBlock is one resident block; data is shorter than blockSize only for
// the device's final partial block.
type cacheBlock struct {
	index int64
	data  []byte
}

// NewCache wraps inner with an LRU cache of capacityBlocks blocks of
// blockSize bytes each (≤ 0 selects DefaultBlockSize).
func NewCache(inner Device, blockSize, capacityBlocks int) *Cache {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if capacityBlocks < 1 {
		capacityBlocks = 1
	}
	return &Cache{
		inner:     inner,
		blockSize: blockSize,
		capacity:  capacityBlocks,
		blocks:    map[int64]*list.Element{},
		lru:       list.New(),
	}
}

// BlockSize returns the cache's block granularity in bytes.
func (c *Cache) BlockSize() int { return c.blockSize }

// Size returns the inner device's size.
func (c *Cache) Size() int64 { return c.inner.Size() }

// ReadAt serves [off, off+len(p)) block by block: resident blocks are copied
// out with no inner I/O, and each maximal run of missing blocks is fetched
// from the inner device with a single block-aligned read before being
// inserted (evicting least recently used blocks beyond capacity).
//
// The lock is dropped while the inner device is read, so a slow miss never
// serializes other readers' hits — the property the concurrent serving layer
// relies on. Two readers missing the same block may both fetch it (each fetch
// counts as a miss, mirroring what the device actually did); the insert is
// idempotent, and since devices are read-only both fetches carry the same
// bytes.
func (c *Cache) ReadAt(p []byte, off int64) error {
	size := c.inner.Size()
	if off < 0 || off > size-int64(len(p)) { // not off+len > size: a hostile offset wraps
		return fmt.Errorf("blockio: read [%d,%d) outside device of size %d", off, off+int64(len(p)), size)
	}
	if len(p) == 0 {
		return nil
	}
	bs := int64(c.blockSize)
	first := off / bs
	last := (off + int64(len(p)) - 1) / bs

	c.mu.Lock()
	for b := first; b <= last; {
		if el, ok := c.blocks[b]; ok {
			c.lru.MoveToFront(el)
			c.copyOut(p, off, el.Value.(*cacheBlock))
			c.hits++
			b++
			continue
		}
		// Maximal run of missing blocks, fetched with one inner read.
		runEnd := b
		for runEnd < last {
			if _, ok := c.blocks[runEnd+1]; ok {
				break
			}
			runEnd++
		}
		runOff := b * bs
		runLen := (runEnd+1)*bs - runOff
		if runOff+runLen > size {
			runLen = size - runOff
		}
		c.misses += runEnd - b + 1
		c.mu.Unlock()
		data := make([]byte, runLen)
		err := c.inner.ReadAt(data, runOff)
		c.mu.Lock()
		if err != nil {
			c.mu.Unlock()
			return err
		}
		for i := b; i <= runEnd; i++ {
			blkOff := (i - b) * bs
			blkEnd := blkOff + bs
			if blkEnd > runLen {
				blkEnd = runLen
			}
			cb := &cacheBlock{index: i, data: data[blkOff:blkEnd]}
			c.insert(cb)
			c.copyOut(p, off, cb)
		}
		b = runEnd + 1
	}
	c.mu.Unlock()
	return nil
}

// copyOut copies the overlap between block cb and the request [off,
// off+len(p)) into p.
func (c *Cache) copyOut(p []byte, off int64, cb *cacheBlock) {
	blockStart := cb.index * int64(c.blockSize)
	from, to := blockStart, blockStart+int64(len(cb.data))
	if from < off {
		from = off
	}
	if end := off + int64(len(p)); to > end {
		to = end
	}
	if from >= to {
		return
	}
	copy(p[from-off:to-off], cb.data[from-blockStart:to-blockStart])
}

// insert adds cb as most recently used, evicting from the LRU tail past
// capacity.
func (c *Cache) insert(cb *cacheBlock) {
	if el, ok := c.blocks[cb.index]; ok {
		el.Value = cb
		c.lru.MoveToFront(el)
		return
	}
	c.blocks[cb.index] = c.lru.PushFront(cb)
	for c.lru.Len() > c.capacity {
		tail := c.lru.Back()
		delete(c.blocks, tail.Value.(*cacheBlock).index)
		c.lru.Remove(tail)
	}
}

// Resident returns the number of blocks currently cached.
func (c *Cache) Resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns the inner device's counters plus this cache's hit/miss
// counts. Blocks served from the cache appear only as hits: they add nothing
// to Reads, BlocksRead or Seeks, so a DiskModel applied to the result charges
// only the I/O that actually reached the device.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.inner.Stats()
	st.CacheHits += c.hits
	st.CacheMiss += c.misses
	return st
}

// ResetStats zeroes the hit/miss counters and the inner device's counters;
// cached blocks stay resident.
func (c *Cache) ResetStats() {
	c.mu.Lock()
	c.hits, c.misses = 0, 0
	c.mu.Unlock()
	c.inner.ResetStats()
}
