package serve

import (
	"container/list"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/geom"
)

// meshCache is the byte-budgeted LRU of completed extraction results, keyed
// like coalescing: (time step, quantized isovalue). Entries are charged their
// triangle payload (the dominant cost by orders of magnitude — a surface's
// sealed frame adds 24 bytes and views of that same payload, so it is not
// charged separately); inserting past the budget evicts from the least
// recently used end, dropping result and frame together. A result larger than
// the whole budget is served but never cached. Callers synchronize access —
// the Server uses it under its own mutex.
type meshCache struct {
	budget int64
	used   int64
	lru    *list.List // front = most recently used; values are *cacheEntry
	byKey  map[Key]*list.Element
}

type cacheEntry struct {
	key   Key
	surf  *surface
	bytes int64
}

func newMeshCache(budget int64) *meshCache {
	return &meshCache{budget: budget, lru: list.New(), byKey: map[Key]*list.Element{}}
}

// triangleBytes is the in-memory size of one mesh triangle.
const triangleBytes = int64(unsafe.Sizeof(geom.Triangle{}))

// resultBytes charges a result its per-node triangle payloads.
func resultBytes(res *cluster.Result) int64 {
	var b int64
	for i := range res.PerNode {
		if m := res.PerNode[i].Mesh; m != nil {
			b += int64(len(m.Tris)) * triangleBytes
		}
	}
	return b
}

// get returns the cached surface for k, refreshing its recency.
func (c *meshCache) get(k Key) (*surface, bool) {
	el, ok := c.byKey[k]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).surf, true
}

// put inserts (or refreshes) a surface and evicts past the budget, returning
// how many entries were evicted.
func (c *meshCache) put(k Key, surf *surface) (evicted int64) {
	bytes := resultBytes(surf.res)
	if c.budget <= 0 || bytes > c.budget {
		return 0
	}
	if el, ok := c.byKey[k]; ok {
		// Refresh: identical key means identical surface; keep accounting
		// consistent with the (possibly re-extracted) result.
		c.used += bytes - el.Value.(*cacheEntry).bytes
		el.Value = &cacheEntry{key: k, surf: surf, bytes: bytes}
		c.lru.MoveToFront(el)
	} else {
		c.byKey[k] = c.lru.PushFront(&cacheEntry{key: k, surf: surf, bytes: bytes})
		c.used += bytes
	}
	for c.used > c.budget {
		tail := c.lru.Back()
		e := tail.Value.(*cacheEntry)
		c.used -= e.bytes
		delete(c.byKey, e.key)
		c.lru.Remove(tail)
		evicted++
	}
	return evicted
}

// size reports the current entry count and payload bytes.
func (c *meshCache) size() (int, int64) { return c.lru.Len(), c.used }
