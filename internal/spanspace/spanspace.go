// Package spanspace provides span-space utilities and the range-partition
// data distribution of Zhang–Bajaj–Blanke (reference [21] of the paper),
// the load-balancing baseline the paper's striping scheme improves on.
//
// In the range-partition scheme the scalar range is split into p intervals;
// a block spanning intervals i..j is assigned to triangular-matrix entry
// (i, j), and entries are distributed over the processors. The paper notes
// "one can have a case in which the distribution of active cells among the
// processors for a given isovalue could be extremely unbalanced" — the
// distribution ablation bench quantifies exactly that against brick
// striping.
package spanspace

import (
	"math"
	"sort"

	"repro/internal/metacell"
)

// Histogram2D is a coarse occupancy map of the span space: counts of
// metacells per (vmin, vmax) bucket. Used by the analysis tooling.
type Histogram2D struct {
	Bins  int
	Count [][]int // [vminBin][vmaxBin]
}

// Histogram builds a bins×bins span-space occupancy histogram. The bins
// divide the range of the finite endpoints, in float64 so that not even
// ±MaxFloat32 overflows it, and an infinite endpoint falls in an end bin.
func Histogram(cells []metacell.Cell, bins int) *Histogram2D {
	h := &Histogram2D{Bins: bins}
	if bins <= 0 {
		return h
	}
	h.Count = make([][]int, bins)
	for i := range h.Count {
		h.Count[i] = make([]int, bins)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range cells {
		for _, v := range [2]float64{float64(c.VMin), float64(c.VMax)} {
			if !math.IsInf(v, 0) {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
	}
	width := hi - lo
	switch {
	case lo > hi: // no finite endpoint
		lo, width = 0, 1
	case width == 0:
		width = 1
	}
	bin := func(v float32) int {
		return int(min(max(float64(bins)*(float64(v)-lo)/width, 0), float64(bins-1)))
	}
	for _, c := range cells {
		h.Count[bin(c.VMin)][bin(c.VMax)]++
	}
	return h
}

// Total returns the number of metacells in the histogram.
func (h *Histogram2D) Total() int {
	n := 0
	for _, row := range h.Count {
		for _, c := range row {
			n += c
		}
	}
	return n
}

// RangePartition assigns metacells to processors by the triangular-matrix
// scheme of [21].
type RangePartition struct {
	Procs  int
	bounds []float32 // p+1 subrange boundaries over the endpoint range
	owner  []int     // owner[entryIndex(i,j)] = processor
	cells  []assigned
}

type assigned struct {
	vmin, vmax float32
	proc       int
}

// NewRangePartition partitions the scalar range into procs equal-occupancy
// subranges (by endpoint quantiles, the scheme's best case) and assigns the
// triangular-matrix entries round-robin to processors.
func NewRangePartition(cells []metacell.Cell, procs int) *RangePartition {
	rp := &RangePartition{Procs: procs}
	if procs <= 0 || len(cells) == 0 {
		return rp
	}
	// Quantile boundaries over all endpoints.
	endpoints := make([]float32, 0, 2*len(cells))
	for _, c := range cells {
		endpoints = append(endpoints, c.VMin, c.VMax)
	}
	sort.Slice(endpoints, func(a, b int) bool { return endpoints[a] < endpoints[b] })
	rp.bounds = make([]float32, procs+1)
	rp.bounds[0] = endpoints[0]
	for k := 1; k < procs; k++ {
		rp.bounds[k] = endpoints[k*len(endpoints)/procs]
	}
	rp.bounds[procs] = endpoints[len(endpoints)-1]

	// Round-robin owners over the p(p+1)/2 triangular entries.
	entries := procs * (procs + 1) / 2
	rp.owner = make([]int, entries)
	for e := range rp.owner {
		rp.owner[e] = e % procs
	}

	for _, c := range cells {
		i, j := rp.subrange(c.VMin), rp.subrange(c.VMax)
		rp.cells = append(rp.cells, assigned{vmin: c.VMin, vmax: c.VMax, proc: rp.owner[entryIndex(i, j)]})
	}
	return rp
}

// subrange returns the index of the subrange containing v.
func (rp *RangePartition) subrange(v float32) int {
	// Binary search over bounds[1..p]: first boundary ≥ v.
	k := sort.Search(rp.Procs, func(k int) bool { return v <= rp.bounds[k+1] })
	if k >= rp.Procs {
		k = rp.Procs - 1
	}
	return k
}

// entryIndex linearizes the upper-triangular entry (i ≤ j).
func entryIndex(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return j*(j+1)/2 + i
}

// Distribution returns the number of active metacells per processor for an
// isovalue.
func (rp *RangePartition) Distribution(iso float32) []int {
	counts := make([]int, rp.Procs)
	for _, c := range rp.cells {
		if c.vmin <= iso && iso <= c.vmax {
			counts[c.proc]++
		}
	}
	return counts
}

// Imbalance summarizes a distribution: the max/avg ratio (1.0 is perfect).
func Imbalance(counts []int) float64 {
	total, max := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 1
	}
	avg := float64(total) / float64(len(counts))
	return float64(max) / avg
}
