// Package octree implements a min-max (branch-on-need) octree over a scalar
// volume, the classic spatial acceleration structure for isosurface
// extraction (Wilhelms–Van Gelder; extended to time-varying data as the
// T-BON tree). The paper cites it as prior work [3,4]; this implementation
// serves as the spatial-indexing baseline in the ablation benches: it prunes
// inactive regions well, but — unlike the compact interval tree's span-space
// bricks — the active leaves it visits are scattered over the volume, so its
// out-of-core access pattern is far from the CIT's contiguous runs.
package octree

import (
	"math"

	"repro/internal/metacell"
	"repro/internal/volume"
)

// Node is one octree node covering a box of metacells.
type Node struct {
	VMin, VMax float32
	// Box in metacell coordinates: [X0,X1)×[Y0,Y1)×[Z0,Z1).
	X0, Y0, Z0 int
	X1, Y1, Z1 int
	// Children holds up to 8 child indices; -1 marks absent children
	// (branch-on-need: degenerate splits produce fewer than 8).
	Children [8]int32
	Leaf     bool
}

// Tree is a min-max octree over a volume's metacell grid.
type Tree struct {
	Layout metacell.Layout
	Nodes  []Node
	Root   int32

	// leafCells maps a leaf's box to the metacell IDs inside it, in
	// row-major order (stored implicitly; resolved on demand).
}

// Build constructs the octree over a volume decomposed into metacells of
// the given span. Leaves cover single metacells.
func Build(g *volume.Grid, span int) *Tree {
	l := metacell.NewLayout(g, span)
	t := &Tree{Layout: l, Root: -1}

	// Per-metacell min/max from one pass over the cells.
	mins := make([]float32, l.Count())
	maxs := make([]float32, l.Count())
	for i := range mins {
		mins[i] = float32(math.Inf(1))
		maxs[i] = float32(math.Inf(-1))
	}
	_, cells := metacell.Extract(g, span)
	present := make([]bool, l.Count())
	for _, c := range cells {
		mins[c.ID] = c.VMin
		maxs[c.ID] = c.VMax
		present[c.ID] = true
	}
	t.Root = t.build(mins, maxs, present, 0, 0, 0, l.Mx, l.My, l.Mz)
	return t
}

// build recursively constructs the subtree for a metacell box, returning -1
// for boxes containing no non-constant metacells.
func (t *Tree) build(mins, maxs []float32, present []bool, x0, y0, z0, x1, y1, z1 int) int32 {
	if x0 >= x1 || y0 >= y1 || z0 >= z1 {
		return -1
	}
	if x1-x0 == 1 && y1-y0 == 1 && z1-z0 == 1 {
		id := t.Layout.ID(x0, y0, z0)
		if !present[id] {
			return -1
		}
		n := Node{
			VMin: mins[id], VMax: maxs[id],
			X0: x0, Y0: y0, Z0: z0, X1: x1, Y1: y1, Z1: z1,
			Leaf: true,
		}
		for i := range n.Children {
			n.Children[i] = -1
		}
		t.Nodes = append(t.Nodes, n)
		return int32(len(t.Nodes) - 1)
	}
	mx, my, mz := (x0+x1+1)/2, (y0+y1+1)/2, (z0+z1+1)/2
	n := Node{
		VMin: float32(math.Inf(1)), VMax: float32(math.Inf(-1)),
		X0: x0, Y0: y0, Z0: z0, X1: x1, Y1: y1, Z1: z1,
	}
	self := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, n)

	type box struct{ x0, y0, z0, x1, y1, z1 int }
	boxes := [8]box{
		{x0, y0, z0, mx, my, mz}, {mx, y0, z0, x1, my, mz},
		{x0, my, z0, mx, y1, mz}, {mx, my, z0, x1, y1, mz},
		{x0, y0, mz, mx, my, z1}, {mx, y0, mz, x1, my, z1},
		{x0, my, mz, mx, y1, z1}, {mx, my, mz, x1, y1, z1},
	}
	any := false
	for i, b := range boxes {
		c := t.build(mins, maxs, present, b.x0, b.y0, b.z0, b.x1, b.y1, b.z1)
		t.Nodes[self].Children[i] = c
		if c >= 0 {
			any = true
			if t.Nodes[c].VMin < t.Nodes[self].VMin {
				t.Nodes[self].VMin = t.Nodes[c].VMin
			}
			if t.Nodes[c].VMax > t.Nodes[self].VMax {
				t.Nodes[self].VMax = t.Nodes[c].VMax
			}
		}
	}
	if !any {
		// Branch-on-need: drop empty interior nodes. The node was already
		// appended; since it is the last one and its children are all -1,
		// truncate it away.
		t.Nodes = t.Nodes[:self]
		return -1
	}
	return self
}

// QueryStats summarizes one octree traversal.
type QueryStats struct {
	NodesVisited int
	LeavesActive int
}

// Query visits the metacell ID of every leaf whose [vmin, vmax] contains
// iso.
func (t *Tree) Query(iso float32, visit func(id uint32)) QueryStats {
	var st QueryStats
	if t.Root < 0 {
		return st
	}
	stack := []int32{t.Root}
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.Nodes[ni]
		st.NodesVisited++
		if iso < n.VMin || iso > n.VMax {
			continue
		}
		if n.Leaf {
			st.LeavesActive++
			visit(t.Layout.ID(n.X0, n.Y0, n.Z0))
			continue
		}
		for _, c := range n.Children {
			if c >= 0 {
				stack = append(stack, c)
			}
		}
	}
	return st
}

// SizeBytes returns the packed size of the octree under the accounting used
// for the other index structures: per node two scalar fields, a child
// bitmap+pointer (8 bytes) and the box (implicit in traversal order, so not
// charged).
func (t *Tree) SizeBytes() int64 {
	w := int64(t.Layout.Fmt.Bytes())
	return int64(len(t.Nodes)) * (2*w + 8)
}
