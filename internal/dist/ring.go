package dist

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/serve"
)

// ring is a consistent-hash ring over n replicas. Each replica owns
// virtualNodes points on a uint64 circle; a key is served by the replica owning
// the first point at or after the key's hash, and fails over to the next
// *distinct* replica in ring order. Because points depend only on
// (replica index, vnode index), the mapping is stable: adding or removing
// a replica moves only the keys in the arcs it owns, so every other
// replica's mesh cache stays hot. Points and keys both go through rng.Mix
// after FNV-1a (see pointHash), so each replica owns close to 1/n of the keys:
// 0.81–1.23 of a fair share for n up to 16.
type ring struct {
	n      int
	hashes []uint64 // sorted point hashes
	owner  []int    // owner[i] is the replica owning hashes[i]
}

// virtualNodes is the router's points per replica: it spreads each replica
// across the circle finely enough that a 64-level isovalue workload splits
// near-evenly over small clusters.
const virtualNodes = 128

func newRing(n int) *ring {
	type point struct {
		h uint64
		r int
	}
	pts := make([]point, 0, n*virtualNodes)
	for r := 0; r < n; r++ {
		for v := 0; v < virtualNodes; v++ {
			pts = append(pts, point{pointHash(r, v), r})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].h < pts[j].h })
	rg := &ring{n: n, hashes: make([]uint64, len(pts)), owner: make([]int, len(pts))}
	for i, p := range pts {
		rg.hashes[i], rg.owner[i] = p.h, p.r
	}
	return rg
}

// order appends to dst the replicas responsible for key hash h: the owner
// first, then each distinct successor around the ring — the failover
// sequence. dst is reused to keep the per-request path allocation-free.
func (rg *ring) order(h uint64, dst []int) []int {
	dst = dst[:0]
	if len(rg.hashes) == 0 {
		return dst
	}
	start := sort.Search(len(rg.hashes), func(i int) bool { return rg.hashes[i] >= h })
	seen := 0
	for i := 0; i < len(rg.hashes) && seen < rg.n; i++ {
		r := rg.owner[(start+i)%len(rg.hashes)]
		dup := false
		for _, d := range dst {
			if d == r {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, r)
			seen++
		}
	}
	return dst
}

// fnv1a64 is FNV-1a, inlined so ring and key hashing allocate nothing.
func fnv1a64[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// pointHash places one of a replica's points. FNV-1a alone would clump them:
// it has no final mix, the names differ only in their last bytes, and a
// difference there barely reaches the high bits that decide a point's place
// on the circle.
func pointHash(replica, vnode int) uint64 {
	return rng.Mix(fnv1a64(fmt.Sprintf("replica-%d/vnode-%d", replica, vnode)))
}

// keyHash hashes a (time step, isovalue bucket) shard key onto the ring.
// The bucket — not the raw isovalue — is hashed, so every request the
// replicas would coalesce or cache together routes to the same shard.
func keyHash(step int, bucket int64) uint64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(step))
	binary.LittleEndian.PutUint64(b[8:], uint64(bucket))
	return rng.Mix(fnv1a64(b[:]))
}

// order is a query's ring order as far as Attempts allows: the home shard
// first, then its failover successors.
func (rt *Router) order(step int, iso float32) []int {
	key := serve.KeyOf(step, iso)
	order := rt.ring.order(keyHash(key.Step, key.Bucket), make([]int, 0, rt.ring.n))
	return order[:min(len(order), rt.cfg.Attempts)]
}

// HomeReplica returns the replica index that owns a query's shard — the
// first attempt of every routed request while it is not known down (exposed
// for tests and rebalancing math).
func (rt *Router) HomeReplica(step int, iso float32) int { return rt.order(step, iso)[0] }

// Candidates returns the replicas a query may be served by, in failover
// order: the home shard first, then the ring successors Attempts allows.
// Exposed so operators (and the scaling harness) can pre-warm every cache a
// key's overflow can spill into.
func (rt *Router) Candidates(step int, iso float32) []int { return rt.order(step, iso) }

// candidates orders this request's replicas: the ring order Attempts allows,
// healthy ones first (see health.healthyFirst).
func (rt *Router) candidates(step int, iso float32) []int {
	return rt.health.healthyFirst(rt.order(step, iso))
}
