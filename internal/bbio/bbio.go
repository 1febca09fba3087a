// Package bbio implements a simplified Binary-Blocked I/O interval tree
// (Chiang–Silva–Schroeder), the external-memory baseline the paper compares
// its scheme against, together with the host-dispatch execution model whose
// coordination overhead the paper identifies as a bottleneck.
//
// The BBIO tree here is the standard interval tree with its binary nodes
// grouped B-at-a-time into disk blocks, queried by traversing blocks from a
// host. Metacell data is laid out in metacell-ID order (spatial order, as a
// preprocessing pipeline without the span-space layout would produce), so
// the active metacells of a query are scattered: each costs its own disk
// request. The contrast with the compact interval tree's contiguous bricks
// is the subject of the bulk-read ablation.
package bbio

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blockio"
	"repro/internal/intervaltree"
	"repro/internal/metacell"
)

// Tree is the blocked external interval tree over a metacell set, plus the
// ID-ordered data layout on one device.
type Tree struct {
	Layout metacell.Layout

	it *intervaltree.Tree
	// nodeBlocks is the number of disk blocks the binary tree occupies when
	// its nodes are grouped B per block.
	nodeBlocks int
	// offsets maps metacell ID to its record offset in the ID-ordered layout.
	offsets map[uint32]int64
}

// Build lays the metacells out in ID order via w and constructs the blocked
// interval tree over their intervals.
func Build(l metacell.Layout, cells []metacell.Cell, w *blockio.Writer) (*Tree, error) {
	sorted := make([]metacell.Cell, len(cells))
	copy(sorted, cells)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].ID < sorted[b].ID })

	t := &Tree{Layout: l, offsets: make(map[uint32]int64, len(cells))}
	ivs := make([]intervaltree.Interval, 0, len(cells))
	for _, c := range sorted {
		off, err := w.Append(c.Record)
		if err != nil {
			return nil, fmt.Errorf("bbio: writing metacell %d: %w", c.ID, err)
		}
		t.offsets[c.ID] = off
		ivs = append(ivs, intervaltree.Interval{VMin: c.VMin, VMax: c.VMax, ID: c.ID})
	}
	t.it = intervaltree.Build(l.Fmt, ivs)

	// Group the binary nodes B per block, B chosen so a block of node
	// records fills one disk block (node ≈ split value + two links + list
	// pointers ≈ 32 bytes).
	const nodeBytes = 32
	perBlock := blockio.DefaultBlockSize / nodeBytes
	t.nodeBlocks = (t.it.NumNodes() + perBlock - 1) / perBlock
	return t, nil
}

// QueryStats reports the I/O profile of one BBIO query.
type QueryStats struct {
	ActiveMetacells int
	IndexBlockReads int // blocked-tree traversal reads (charged, not stored)
	DataReads       int // one per active metacell: the scattered layout
}

// Query visits the records of all active metacells for iso. Unlike the
// compact interval tree, every metacell is fetched with its own random read.
func (t *Tree) Query(dev blockio.Device, iso float32, visit func(rec []byte) error) (QueryStats, error) {
	var st QueryStats
	// Index traversal: a root-to-leaf path in the blocked tree touches about
	// height/log2(B) blocks. The index is kept in memory here; the reads are
	// charged analytically, which is all the comparison benches need.
	st.IndexBlockReads = t.indexPathBlocks()

	var ids []uint32
	t.it.Stab(iso, func(iv intervaltree.Interval) { ids = append(ids, iv.ID) })
	st.ActiveMetacells = len(ids)
	// Fetch in ID order — the best a spatial layout can do — yet still
	// scattered relative to the span-space brick layout.
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	rec := make([]byte, t.Layout.RecordSize())
	for _, id := range ids {
		if err := dev.ReadAt(rec, t.offsets[id]); err != nil {
			return st, fmt.Errorf("bbio: reading metacell %d: %w", id, err)
		}
		st.DataReads++
		if err := visit(rec); err != nil {
			return st, err
		}
	}
	return st, nil
}

// indexPathBlocks estimates the block reads of one root-to-leaf traversal.
func (t *Tree) indexPathBlocks() int {
	h := t.it.Height() + 1
	const nodeBytes = 32
	perBlock := blockio.DefaultBlockSize / nodeBytes
	// log2(perBlock) levels fit per block.
	lv := 0
	for 1<<lv < perBlock {
		lv++
	}
	if lv == 0 {
		lv = 1
	}
	return (h + lv - 1) / lv
}

// IndexSizeBytes returns the blocked index size in bytes.
func (t *Tree) IndexSizeBytes() int64 {
	return int64(t.nodeBlocks) * blockio.DefaultBlockSize
}

// DispatchModel captures the paper's criticism of the host-coordinated
// execution: a single host traverses the index and hands active metacells
// to workers on demand, paying a fixed coordination overhead per job, so
// the host serializes part of the work.
type DispatchModel struct {
	Workers     int
	PerJob      time.Duration // host overhead to dispatch one metacell job
	JobDuration time.Duration // processing time of one metacell job
}

// Makespan returns the completion time of n jobs under the model: the host
// issues jobs one at a time (n·PerJob of serialized coordination), and each
// worker processes its share in parallel.
func (m DispatchModel) Makespan(n int) time.Duration {
	if m.Workers <= 0 {
		return 0
	}
	hostSerial := time.Duration(n) * m.PerJob
	perWorker := time.Duration((n + m.Workers - 1) / m.Workers)
	work := perWorker * m.JobDuration
	if hostSerial > work {
		return hostSerial
	}
	return work
}
