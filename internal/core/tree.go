package core

import (
	"fmt"

	"repro/internal/metacell"
)

// RecordWriter is the sink a plan's bricks are laid out into. It is
// satisfied by *blockio.Writer; Table-1-style size studies use a discarding
// implementation since only the resulting index matters.
type RecordWriter interface {
	// Offset reports where the next Append will land.
	Offset() int64
	// Append writes one record and returns its offset.
	Append(p []byte) (int64, error)
}

// IndexEntry describes one brick of a materialized tree: the paper's three
// fields (the brick's vmax, the smallest vmin inside it, and the brick's
// start position on disk) plus the brick's metacell count, which delimits
// the brick since records are fixed-size.
type IndexEntry struct {
	VMax    float32
	MinVMin float32
	Offset  int64
	Count   int32
}

// Node is one materialized tree node: the split value and the index entries
// of its bricks in decreasing-vmax order.
type Node struct {
	VM          float32
	Entries     []IndexEntry
	Left, Right int32 // indices into Tree.Nodes, -1 if none
}

// Tree is a materialized compact interval tree: the in-memory index over one
// disk's brick data.
type Tree struct {
	Layout   metacell.Layout
	Nodes    []Node
	Root     int32
	NumCells int // metacells indexed on this disk
}

// Materialize lays the plan's bricks out on a single disk via w (records are
// written in node order, bricks in decreasing-vmax order, metacells in
// increasing-vmin order) and returns the sequential tree.
func (p *BuildPlan) Materialize(l metacell.Layout, cells []metacell.Cell, w RecordWriter) (*Tree, error) {
	if p.err != nil {
		return nil, p.err
	}
	t := &Tree{Layout: l, Root: p.root, NumCells: p.cells, Nodes: make([]Node, len(p.nodes))}
	for ni, np := range p.nodes {
		n := Node{VM: np.vm, Left: np.left, Right: np.right}
		for _, b := range np.bricks {
			off := w.Offset()
			for _, ci := range b.cells {
				if _, err := w.Append(cells[ci].Record); err != nil {
					return nil, fmt.Errorf("core: writing brick: %w", err)
				}
			}
			n.Entries = append(n.Entries, IndexEntry{
				VMax:    b.vmax,
				MinVMin: cells[b.cells[0]].VMin,
				Offset:  off,
				Count:   int32(len(b.cells)),
			})
		}
		t.Nodes[ni] = n
	}
	return t, nil
}

// MaterializeStriped distributes the plan across len(ws) disks: the
// metacells of every brick are striped round-robin across the disks (paper
// §5.1), so for any isovalue the active metacells split across the disks
// within ±1 per brick — the paper's provable load-balance guarantee. Each
// returned tree has the same shape as the sequential one, with entries
// describing the local portion of each brick; empty local bricks get no
// entry.
//
// One refinement over the paper's description: the paper restarts every
// brick's stripe at the first processor, which systematically overloads
// low-numbered disks when bricks are small (every brick's remainder lands on
// disk 0). We instead continue the rotation from brick to brick, which keeps
// the ±1-per-brick guarantee and removes the bias; at the paper's scale
// (bricks of thousands of metacells) the two are indistinguishable.
func (p *BuildPlan) MaterializeStriped(l metacell.Layout, cells []metacell.Cell, ws []RecordWriter) ([]*Tree, error) {
	procs := len(ws)
	if procs == 0 {
		return nil, fmt.Errorf("core: striping requires at least one writer")
	}
	if p.err != nil {
		return nil, p.err
	}
	trees := make([]*Tree, procs)
	for i := range trees {
		trees[i] = &Tree{Layout: l, Root: p.root, Nodes: make([]Node, len(p.nodes))}
	}
	rot := 0 // disk receiving the next brick's first metacell
	for ni, np := range p.nodes {
		for i := range trees {
			trees[i].Nodes[ni] = Node{VM: np.vm, Left: np.left, Right: np.right}
		}
		for _, b := range np.bricks {
			for i := 0; i < procs; i++ {
				// Local sub-brick for disk i: every procs-th metacell,
				// starting at this brick's rotated offset. The order
				// (increasing vmin) is preserved.
				start := ((i-rot)%procs + procs) % procs
				first := -1
				off := ws[i].Offset()
				count := 0
				for j := start; j < len(b.cells); j += procs {
					if first < 0 {
						first = b.cells[j]
					}
					if _, err := ws[i].Append(cells[b.cells[j]].Record); err != nil {
						return nil, fmt.Errorf("core: striping brick: %w", err)
					}
					count++
				}
				if count == 0 {
					continue
				}
				n := &trees[i].Nodes[ni]
				n.Entries = append(n.Entries, IndexEntry{
					VMax:    b.vmax,
					MinVMin: cells[first].VMin,
					Offset:  off,
					Count:   int32(count),
				})
				trees[i].NumCells += count
			}
			rot = (rot + len(b.cells)) % procs
		}
	}
	return trees, nil
}

// NumEntries returns the total number of index entries (bricks) in the tree.
func (t *Tree) NumEntries() int {
	n := 0
	for _, nd := range t.Nodes {
		n += len(nd.Entries)
	}
	return n
}

// IndexSizeBytes returns the size of the index in its packed on-disk
// encoding: per entry two scalar fields at the dataset's scalar width plus
// an 8-byte disk pointer and a 4-byte count, and per node a split value and
// two 4-byte child links. This is the quantity Table 1 compares against the
// standard interval tree.
func (t *Tree) IndexSizeBytes() int64 {
	w := int64(t.Layout.Fmt.Bytes())
	entry := 2*w + 8 + 4
	node := w + 8
	return int64(t.NumEntries())*entry + int64(len(t.Nodes))*node
}

// Height returns the height of the tree (-1 if empty).
func (t *Tree) Height() int { return t.height(t.Root) }

func (t *Tree) height(n int32) int {
	if n < 0 {
		return -1
	}
	hl := t.height(t.Nodes[n].Left)
	hr := t.height(t.Nodes[n].Right)
	if hl > hr {
		return hl + 1
	}
	return hr + 1
}
