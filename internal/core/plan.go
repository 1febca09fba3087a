// Package core implements the paper's primary contribution: the compact
// interval tree (CIT), an indexing structure for out-of-core isosurface
// extraction that combines the interval tree recursion with a span-space
// data layout.
//
// Construction (paper §4): each metacell contributes the interval
// (vmin, vmax) of its scalar values. A binary tree is built over the distinct
// endpoint values; a node stores the median vm of the endpoints of the
// intervals reaching it, and owns every interval with vmin ≤ vm ≤ vmax.
// Within a node, metacells sharing the same vmax form a "brick", stored
// contiguously on disk in increasing vmin order; a node's bricks are stored
// consecutively in decreasing vmax order. The node keeps one small index
// entry per brick — (vmax, smallest vmin, disk pointer) — so the index holds
// O(n log n) entries for n distinct endpoint values, versus Ω(N) interval
// references for the standard interval tree.
//
// Queries (paper §5): walk from the root toward the isovalue λ. Where λ lies
// right of a node's split (λ ≥ vm), every metacell in the prefix of bricks
// with vmax ≥ λ is active and is fetched with one contiguous bulk read
// (Case 1). Where λ lies left (λ < vm), each brick contributes the prefix of
// metacells with vmin ≤ λ, scanned block-by-block, and bricks whose smallest
// vmin exceeds λ are skipped without any I/O (Case 2). Total I/O is
// O(log n + T/B) block reads for output size T.
//
// The same plan can be materialized onto one disk (sequential algorithm) or
// striped round-robin, brick by brick, across p disks (§5.1): every
// processor then holds the same tree shape with entries pointing at its
// local part of each brick, and the active set for any isovalue splits
// across processors within ±1 metacell per brick.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/metacell"
)

// ErrBadInterval is what materializing a plan returns, wrapped, when one of
// the plan's metacells has no interval: vmin above vmax, or a NaN endpoint.
// A split value is an endpoint of an interval that must then contain it, so
// such a metacell has no place in the tree.
var ErrBadInterval = errors.New("core: a metacell's interval is not vmin ≤ vmax")

// brickPlan groups the metacells of one node sharing one vmax value.
type brickPlan struct {
	vmax  float32
	cells []int // indices into the build's cell slice, increasing vmin
}

// nodePlan is the structural skeleton of one CIT node before materialization.
type nodePlan struct {
	vm          float32
	bricks      []brickPlan
	left, right int32 // child indices into BuildPlan.nodes, -1 if none
}

// BuildPlan is the disk-layout-independent structure of a compact interval
// tree: the tree shape and the assignment of every metacell to a brick. One
// plan can be materialized sequentially or striped across processors, which
// is exactly how the paper derives its parallel scheme from the sequential
// one.
type BuildPlan struct {
	nodes []nodePlan
	root  int32
	err   error // ErrBadInterval: there is no plan, and Materialize says so
}

// Plan computes the compact interval tree skeleton for a set of metacells.
// The input order is irrelevant: the plan, and every byte materializing it
// writes, depends only on the set of cells. Ties are broken by metacell ID,
// and ±0 is one endpoint value, written +0 wherever the tree holds it (split
// values, brick vmax, a brick's smallest vmin), so a plan never takes the sign
// of a zero from whichever cell came first. Cells that are not all intervals
// have no plan: materializing the result returns ErrBadInterval.
//
// Planning is counting. The distinct endpoint values are sorted once, by a
// radix sort over their bits, and every interval gets the ranks of its two
// endpoints. A node then works on ranks alone, over the rank range its
// intervals lie in: it marks the ranks its endpoints take to find their
// median, partitions its cells stably (they arrive in ID order and stay in
// it), and orders the cells it keeps into bricks by two stable counting
// sorts. Siblings split their parent's range, so each level of the tree costs
// O(cells + distinct values) and no step compares two cells.
func Plan(cells []metacell.Cell) *BuildPlan {
	p := &BuildPlan{root: -1}
	for i := range cells {
		if c := &cells[i]; !(c.VMin <= c.VMax) {
			p.err = fmt.Errorf("%w: metacell %d has [%v, %v]", ErrBadInterval, c.ID, c.VMin, c.VMax)
			return p
		}
	}
	if len(cells) == 0 {
		return p
	}
	pl := newPlanner(cells)
	p.root = pl.node(p, pl.idx, 0, int32(len(pl.vals)))
	return p
}

// planner holds one Plan's ranks and scratch space.
type planner struct {
	vals   []float32 // the distinct endpoint values, increasing; zero is +0
	lo, hi []int32   // per cell: the ranks of its vmin and vmax in vals
	idx    []int     // cell indices: a node's cells, then its children's; bricks slice it
	tmp    []int     // scratch as long as idx
	seen   []bool    // per rank, while a node finds its median
	count  []int32   // per rank and one more, while a node counting-sorts
}

func newPlanner(cells []metacell.Cell) *planner {
	n := len(cells)
	pl := &planner{lo: make([]int32, n), hi: make([]int32, n), idx: make([]int, n), tmp: make([]int, n)}

	// Endpoints by value: the sortable key in the high half, which cell and
	// which end in the low half.
	keys, buf := make([]uint64, 2*n), make([]uint64, 2*n)
	for i := range cells {
		keys[2*i] = uint64(sortableBits(cells[i].VMin))<<32 | uint64(2*i)
		keys[2*i+1] = uint64(sortableBits(cells[i].VMax))<<32 | uint64(2*i+1)
	}
	r := int32(-1)
	byValue := radixSort(keys, buf)
	for j, k := range byValue {
		if j == 0 || k>>32 != byValue[j-1]>>32 {
			r++
			pl.vals = append(pl.vals, fromSortableBits(uint32(k>>32)))
		}
		if end := uint32(k); end&1 == 0 {
			pl.lo[end>>1] = r
		} else {
			pl.hi[end>>1] = r
		}
	}
	pl.seen = make([]bool, len(pl.vals))
	pl.count = make([]int32, len(pl.vals)+1)

	// The root's cells in ID order: the order every partition keeps.
	sorted := true
	for i := range cells {
		pl.idx[i] = i
		sorted = sorted && (i == 0 || cells[i-1].ID <= cells[i].ID)
	}
	if !sorted {
		for i := range cells {
			keys[i] = uint64(cells[i].ID)<<32 | uint64(i)
		}
		for i, k := range radixSort(keys[:n], buf[:n]) {
			pl.idx[i] = int(uint32(k))
		}
	}
	return pl
}

// radixSort orders a by the high 32 bits of its elements, stably, with buf
// (as long as a) for scratch, and returns whichever of the two holds the
// result (the caller's keys slice may then be either). One pass per byte of
// the key, and none for a byte every key has the same.
func radixSort(a, buf []uint64) []uint64 {
	var counts [4][256]int
	for _, v := range a {
		for d := range counts {
			counts[d][byte(v>>(32+8*d))]++
		}
	}
	for d := range counts {
		shift, c := 32+8*d, &counts[d]
		if c[byte(a[0]>>shift)] == len(a) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, v := range a {
			b := byte(v >> shift)
			buf[c[b]] = v
			c[b]++
		}
		a, buf = buf, a
	}
	return a
}

// sortableBits maps a float that is not NaN to a key whose unsigned order is
// the float's order, with −0 and +0 one key: +0's.
func sortableBits(v float32) uint32 {
	b := math.Float32bits(plusZero(v))
	if b>>31 != 0 {
		return ^b
	}
	return b | 1<<31
}

// plusZero is v with a zero written +0.
func plusZero(v float32) float32 {
	if v == 0 {
		return 0
	}
	return v
}

func fromSortableBits(k uint32) float32 {
	if k>>31 != 0 {
		return math.Float32frombits(k &^ (1 << 31))
	}
	return math.Float32frombits(^k)
}

// node plans the subtree of the cells in sub, which are in ID order and whose
// endpoint ranks all lie in [rlo, rhi), and returns its node index (-1 for no
// cells). It leaves sub holding the node's bricks, then its left subtree's
// cells, then its right's.
func (pl *planner) node(p *BuildPlan, sub []int, rlo, rhi int32) int32 {
	if len(sub) == 0 {
		return -1
	}
	lo, hi := pl.lo, pl.hi

	// The median of the distinct endpoint ranks the cells take.
	seen := pl.seen[rlo:rhi]
	for _, i := range sub {
		seen[lo[i]-rlo], seen[hi[i]-rlo] = true, true
	}
	distinct := 0
	for _, s := range seen {
		if s {
			distinct++
		}
	}
	m := rlo
	for k := distinct / 2; ; m++ {
		if seen[m-rlo] {
			if k == 0 {
				break
			}
			k--
		}
	}
	clear(seen)

	// Stable partition into here (vmin ≤ vm ≤ vmax), left (vmax < vm) and
	// right (vmin > vm), laid out in that order. m is an endpoint of some
	// cell, which straddles it, so here is never empty and the recursion
	// shrinks.
	nh, nl := 0, 0
	for _, i := range sub {
		switch {
		case hi[i] < m:
			nl++
		case lo[i] <= m:
			nh++
		}
	}
	t := pl.tmp[:len(sub)]
	h, l, r := 0, nh, nh+nl
	for _, i := range sub {
		switch {
		case hi[i] < m:
			t[l], l = i, l+1
		case lo[i] > m:
			t[r], r = i, r+1
		default:
			t[h], h = i, h+1
		}
	}
	copy(sub[nh:], t[nh:])

	// Bricks: vmax decreasing, then vmin increasing, then ID — two stable
	// counting sorts of ID-ordered cells, the minor key first.
	here := sub[:nh]
	pl.countingSort(here, t[:nh], lo, rlo, rhi, false)
	pl.countingSort(t[:nh], here, hi, rlo, rhi, true)
	copy(here, t[:nh])
	n := nodePlan{vm: pl.vals[m]}
	for start := 0; start < nh; {
		end := start + 1
		for end < nh && hi[here[end]] == hi[here[start]] {
			end++
		}
		n.bricks = append(n.bricks, brickPlan{vmax: pl.vals[hi[here[start]]], cells: here[start:end:end]})
		start = end
	}

	self := int32(len(p.nodes))
	p.nodes = append(p.nodes, n)
	left := pl.node(p, sub[nh:nh+nl], rlo, m)
	right := pl.node(p, sub[nh+nl:], m+1, rhi)
	p.nodes[self].left, p.nodes[self].right = left, right
	return self
}

// countingSort writes src to dst ordered by key (a rank in [rlo, rhi)),
// increasing or, with desc, decreasing; cells with equal keys keep their
// order.
func (pl *planner) countingSort(dst, src []int, key []int32, rlo, rhi int32, desc bool) {
	count := pl.count[:rhi-rlo+1]
	clear(count)
	base, sign := rlo, int32(1) // a key's slot is sign·(key − base)
	if desc {
		base, sign = rhi-1, -1
	}
	for _, i := range src {
		count[sign*(key[i]-base)+1]++
	}
	for b := 1; b < len(count); b++ {
		count[b] += count[b-1]
	}
	for _, i := range src {
		s := sign * (key[i] - base)
		dst[count[s]] = i
		count[s]++
	}
}
