package dist

import (
	"sync"

	"repro/internal/obs"
)

// The free list holds at most this many bytes of capacity in at most this
// many buffers: room for every slot to hold a mean surface's 12 MB frame, and
// a scan short enough to do under a mutex.
const (
	freeFrameBytes = 256 << 20
	freeFrameSlots = 16
)

// freeList is the frame buffers handed back by Recycle, for fetch to read the
// next frames into. Deliberately not a sync.Pool: a GC would empty it, and
// the point is a steady state that allocates nothing. The zero value is an
// empty list.
type freeList struct {
	mu    sync.Mutex
	bufs  [][]byte
	bytes int // sum of cap over bufs
}

// gauge exports the list's held capacity.
func (fl *freeList) gauge(reg *obs.Registry) {
	reg.GaugeFunc("router_free_frames_bytes", "capacity of recycled frame buffers waiting for the next fetch", func() float64 {
		_, b := fl.size()
		return float64(b)
	})
}

// size reports the buffers held and their total capacity.
func (fl *freeList) size() (n, bytes int) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return len(fl.bufs), fl.bytes
}

// put keeps frame's memory for a later take, unless the bounds say a buffer
// already held is worth more.
func (fl *freeList) put(frame []byte) {
	c := cap(frame)
	if c == 0 || c > freeFrameBytes {
		return
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	// Make room by dropping the smallest buffer: any frame it could hold, a
	// larger one can too.
	for len(fl.bufs) == freeFrameSlots || fl.bytes+c > freeFrameBytes {
		small := 0
		for i := range fl.bufs {
			if cap(fl.bufs[i]) < cap(fl.bufs[small]) {
				small = i
			}
		}
		if cap(fl.bufs[small]) >= c {
			return // the newcomer is the smallest
		}
		fl.drop(small)
	}
	fl.bufs = append(fl.bufs, frame[:0])
	fl.bytes += c
}

// take returns a size-byte buffer for one fetch to read into: the
// tightest recycled one that fits, else a fresh one. Always sliced from the
// buffer's start, where an allocation is aligned for meshio's triangle view.
func (fl *freeList) take(size int) []byte {
	fl.mu.Lock()
	best := -1
	for i := range fl.bufs {
		if c := cap(fl.bufs[i]); c >= size && (best < 0 || c < cap(fl.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		fl.mu.Unlock()
		return make([]byte, size)
	}
	buf := fl.bufs[best]
	fl.drop(best)
	fl.mu.Unlock()
	return buf[:size]
}

// drop removes bufs[i]; mu is held.
func (fl *freeList) drop(i int) {
	last := len(fl.bufs) - 1
	fl.bytes -= cap(fl.bufs[i])
	fl.bufs[i] = fl.bufs[last]
	fl.bufs[last] = nil
	fl.bufs = fl.bufs[:last]
}
