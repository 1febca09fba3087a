package serve

import "container/heap"

// meshCache is the byte-budgeted cache of completed extraction results, keyed
// like coalescing: (time step, quantized isovalue). Eviction is
// GreedyDual-Size-Frequency with a bounded count: an entry's priority is
// floor + hits/bytes, set whenever it is inserted or hit, where floor is the
// priority of the last entry evicted — so an entry nobody asks for again falls
// behind as evictions raise the floor, a surface asked for often outranks one
// asked for once, and a small surface outranks a large one asked for as often.
// put inserts first and then evicts lowest priority first until the budget
// holds, so a newcomer colder than everything resident is itself the victim:
// that is the admission rule, and the newcomer's own priority becomes the
// floor, which is how a stream of refused newcomers eventually displaces a
// resident nobody hits any more. Equal priorities fall back to least recently
// used. A result larger than the whole budget is served but never cached.
// Callers synchronize access — the Server uses it under its own mutex.
type meshCache struct {
	budget int64
	used   int64
	floor  float64
	clock  uint64 // stamps touched; advances on every insert and hit
	order  entryHeap
	byKey  map[Key]*cacheEntry
}

type cacheEntry struct {
	key      Key
	surf     *surface
	bytes    int64
	hits     int // the insert plus every get while resident, saturating at maxHits
	priority float64
	touched  uint64
	index    int // position in meshCache.order
}

// maxHits bounds an entry's count. Unbounded, a surface that was popular for
// an hour would take thousands of requests for other surfaces to displace;
// bounded here, a popularity shift is followed within a few hundred (the
// replay test pins both halves). Recency still separates saturated entries:
// each hit re-bases the priority on the current floor.
const maxHits = 8

func newMeshCache(budget int64) *meshCache {
	return &meshCache{budget: budget, byKey: map[Key]*cacheEntry{}}
}

// entryOverhead is charged to every entry on top of its frame's bytes:
// roughly what the Result and its per-node reports, the surface, the sealed
// frame's header and the cache's own bookkeeping hold for it. Beside a real
// surface it is noise; it is there so that an empty surface (an isovalue
// outside the data range) is not free, or a sweep of such isovalues would
// grow the cache without bound.
const entryOverhead = 1 << 10

// touch re-bases e's priority on the current floor, marks it most recently
// used and puts it where it now belongs in the eviction order.
func (c *meshCache) touch(e *cacheEntry) {
	c.clock++
	e.touched = c.clock
	e.priority = c.floor + float64(e.hits)/float64(e.bytes)
	heap.Fix(&c.order, e.index)
}

// get returns the cached surface for k, counting the hit.
func (c *meshCache) get(k Key) (*surface, bool) {
	e, ok := c.byKey[k]
	if !ok {
		return nil, false
	}
	if e.hits < maxHits {
		e.hits++
	}
	c.touch(e)
	return e.surf, true
}

// put inserts (or refreshes) a surface and evicts past the budget — possibly
// the surface just inserted — returning how many entries were evicted.
func (c *meshCache) put(k Key, surf *surface) (evicted int64) {
	bytes := surf.bytes
	if c.budget <= 0 || bytes > c.budget {
		return 0
	}
	e, ok := c.byKey[k]
	if !ok {
		e = &cacheEntry{key: k, hits: 1}
		c.byKey[k] = e
		heap.Push(&c.order, e)
	}
	// A refresh keeps its count: identical key means identical surface, but
	// the accounting follows the (possibly re-extracted) result.
	c.used += bytes - e.bytes
	e.surf, e.bytes = surf, bytes
	c.touch(e)
	for c.used > c.budget {
		e := heap.Pop(&c.order).(*cacheEntry)
		c.floor = e.priority
		c.used -= e.bytes
		delete(c.byKey, e.key)
		evicted++
	}
	return evicted
}

// size reports the current entry count and charged bytes.
func (c *meshCache) size() (int, int64) { return len(c.order), c.used }

// entryHeap is a min-heap of cache entries: the next victim is at the root.
type entryHeap []*cacheEntry

func (h entryHeap) Len() int { return len(h) }

func (h entryHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].touched < h[j].touched
}

func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}

func (h *entryHeap) Push(x any) {
	e := x.(*cacheEntry)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *entryHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}
