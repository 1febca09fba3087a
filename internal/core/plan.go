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
	"sort"

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
// The input order is irrelevant; the plan is deterministic (ties broken by
// metacell ID). Cells that are not all intervals have no plan: materializing
// the result returns ErrBadInterval.
func Plan(cells []metacell.Cell) *BuildPlan {
	p := &BuildPlan{}
	for i := range cells {
		if c := &cells[i]; !(c.VMin <= c.VMax) {
			p.err = fmt.Errorf("%w: metacell %d has [%v, %v]", ErrBadInterval, c.ID, c.VMin, c.VMax)
			return p
		}
	}
	idx := make([]int, len(cells))
	for i := range idx {
		idx[i] = i
	}
	p.root = p.build(cells, idx)
	return p
}

// build recursively constructs the subtree for the given cell subset and
// returns its node index (-1 for an empty subset).
func (p *BuildPlan) build(cells []metacell.Cell, subset []int) int32 {
	if len(subset) == 0 {
		return -1
	}
	vm := medianEndpoint(cells, subset)

	var here, left, right []int
	for _, i := range subset {
		c := &cells[i]
		switch {
		case c.VMax < vm:
			left = append(left, i)
		case c.VMin > vm:
			right = append(right, i)
		default: // vmin ≤ vm ≤ vmax
			here = append(here, i)
		}
	}
	// vm is an endpoint of some interval in the subset, so that interval
	// straddles it: `here` is never empty and the recursion shrinks.
	if len(here) == 0 {
		panic("core: median split produced an empty node")
	}

	// Bricks: group by vmax (decreasing), metacells by vmin (increasing)
	// within each brick; ID breaks ties for determinism.
	sort.Slice(here, func(a, b int) bool {
		ca, cb := &cells[here[a]], &cells[here[b]]
		if ca.VMax != cb.VMax {
			return ca.VMax > cb.VMax
		}
		if ca.VMin != cb.VMin {
			return ca.VMin < cb.VMin
		}
		return ca.ID < cb.ID
	})
	n := nodePlan{vm: vm}
	for start := 0; start < len(here); {
		end := start
		vmax := cells[here[start]].VMax
		for end < len(here) && cells[here[end]].VMax == vmax {
			end++
		}
		n.bricks = append(n.bricks, brickPlan{vmax: vmax, cells: here[start:end]})
		start = end
	}

	self := int32(len(p.nodes))
	p.nodes = append(p.nodes, n)
	l := p.build(cells, left)
	r := p.build(cells, right)
	p.nodes[self].left = l
	p.nodes[self].right = r
	return self
}

// medianEndpoint returns the median of the distinct endpoint values of the
// subset's intervals.
func medianEndpoint(cells []metacell.Cell, subset []int) float32 {
	vals := make([]float32, 0, 2*len(subset))
	for _, i := range subset {
		vals = append(vals, cells[i].VMin, cells[i].VMax)
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	// Deduplicate in place.
	w := 0
	for i, v := range vals {
		if i == 0 || v != vals[w-1] {
			vals[w] = v
			w++
		}
	}
	return vals[w/2]
}
