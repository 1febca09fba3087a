package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/blockio"
	"repro/internal/metacell"
)

// ExternalTree is the out-of-core variant of the compact interval tree for
// the (unlikely, per the paper) case where the index itself does not fit in
// main memory — e.g. float scalar fields with millions of distinct endpoint
// values. Following the paper's §5 strategy (after Chiang–Silva), the binary
// tree's nodes are grouped into disk blocks so a root-to-leaf walk costs
// O(log_B n) block reads; only a node-offset table (a few bytes per node)
// stays resident.
//
// Nodes are laid out in breadth-first order, so consecutive levels — which a
// query touches in sequence — share blocks near the top of the tree.
type ExternalTree struct {
	Layout metacell.Layout
	Root   int32

	dev     blockio.Device // serialized node records
	offsets []int64        // node index → byte offset in dev
	lengths []int32        // node index → record length
}

// BuildExternal serializes a tree's nodes in BFS order and returns the
// external index backed by an in-memory device image (callers persisting to
// disk can write the returned image with blockio.Writer and reopen it with
// OpenExternal).
func BuildExternal(t *Tree, blockSize int) (*ExternalTree, []byte, error) {
	et := &ExternalTree{
		Layout:  t.Layout,
		Root:    -1,
		offsets: make([]int64, len(t.Nodes)),
		lengths: make([]int32, len(t.Nodes)),
	}
	if t.Root < 0 {
		et.dev = blockio.NewStore(nil, blockSize)
		return et, nil, nil
	}
	// BFS order, remapping node indices so the serialized ids are the BFS
	// ranks.
	order := make([]int32, 0, len(t.Nodes))
	rank := make([]int32, len(t.Nodes))
	for i := range rank {
		rank[i] = -1
	}
	queue := []int32{t.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		rank[n] = int32(len(order))
		order = append(order, n)
		if l := t.Nodes[n].Left; l >= 0 {
			queue = append(queue, l)
		}
		if r := t.Nodes[n].Right; r >= 0 {
			queue = append(queue, r)
		}
	}
	et.Root = 0

	var image []byte
	for _, n := range order {
		nd := &t.Nodes[n]
		rec := encodeNode(nd, rank)
		et.offsets[rank[n]] = int64(len(image))
		et.lengths[rank[n]] = int32(len(rec))
		image = append(image, rec...)
	}
	et.offsets = et.offsets[:len(order)]
	et.lengths = et.lengths[:len(order)]
	et.dev = blockio.NewStore(image, blockSize)
	return et, image, nil
}

// OpenExternal attaches an external index to a device holding the node image
// produced by BuildExternal. The offset table is rebuilt by a single
// sequential scan (one pass of O(index/B) reads, done once at open).
func OpenExternal(l metacell.Layout, dev blockio.Device) (*ExternalTree, error) {
	et := &ExternalTree{Layout: l, Root: -1, dev: dev}
	size := dev.Size()
	if size == 0 {
		return et, nil
	}
	et.Root = 0
	var off int64
	hdr := make([]byte, 16)
	for off < size {
		if err := dev.ReadAt(hdr, off); err != nil {
			return nil, fmt.Errorf("core: scanning external index: %w", err)
		}
		entries := int32(binary.LittleEndian.Uint32(hdr[12:]))
		if entries < 0 || int64(entries) > size {
			return nil, fmt.Errorf("core: corrupt external index at %d", off)
		}
		length := int32(nodeRecordSize(int(entries)))
		et.offsets = append(et.offsets, off)
		et.lengths = append(et.lengths, length)
		off += int64(length)
	}
	return et, nil
}

// nodeRecordSize returns the serialized size of a node with the given entry
// count: vm(4) + left(4) + right(4) + count(4) + entries×(vmax 4, minvmin 4,
// offset 8, count 4).
func nodeRecordSize(entries int) int { return 16 + entries*20 }

func encodeNode(nd *Node, rank []int32) []byte {
	rec := make([]byte, nodeRecordSize(len(nd.Entries)))
	binary.LittleEndian.PutUint32(rec[0:], math.Float32bits(nd.VM))
	l, r := int32(-1), int32(-1)
	if nd.Left >= 0 {
		l = rank[nd.Left]
	}
	if nd.Right >= 0 {
		r = rank[nd.Right]
	}
	binary.LittleEndian.PutUint32(rec[4:], uint32(l))
	binary.LittleEndian.PutUint32(rec[8:], uint32(r))
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(nd.Entries)))
	off := 16
	for _, e := range nd.Entries {
		binary.LittleEndian.PutUint32(rec[off:], math.Float32bits(e.VMax))
		binary.LittleEndian.PutUint32(rec[off+4:], math.Float32bits(e.MinVMin))
		binary.LittleEndian.PutUint64(rec[off+8:], uint64(e.Offset))
		binary.LittleEndian.PutUint32(rec[off+16:], uint32(e.Count))
		off += 20
	}
	return rec
}

func decodeNode(rec []byte) (Node, error) {
	if len(rec) < 16 {
		return Node{}, fmt.Errorf("core: short node record (%d bytes)", len(rec))
	}
	nd := Node{
		VM:    math.Float32frombits(binary.LittleEndian.Uint32(rec[0:])),
		Left:  int32(binary.LittleEndian.Uint32(rec[4:])),
		Right: int32(binary.LittleEndian.Uint32(rec[8:])),
	}
	entries := int(binary.LittleEndian.Uint32(rec[12:]))
	if len(rec) != nodeRecordSize(entries) {
		return Node{}, fmt.Errorf("core: node record size %d, want %d", len(rec), nodeRecordSize(entries))
	}
	nd.Entries = make([]IndexEntry, entries)
	off := 16
	for i := range nd.Entries {
		nd.Entries[i] = IndexEntry{
			VMax:    math.Float32frombits(binary.LittleEndian.Uint32(rec[off:])),
			MinVMin: math.Float32frombits(binary.LittleEndian.Uint32(rec[off+4:])),
			Offset:  int64(binary.LittleEndian.Uint64(rec[off+8:])),
			Count:   int32(binary.LittleEndian.Uint32(rec[off+16:])),
		}
		off += 20
	}
	return nd, nil
}

// IndexDevice exposes the index device (for I/O accounting in tests).
func (et *ExternalTree) IndexDevice() blockio.Device { return et.dev }

// NumNodes returns the number of serialized nodes.
func (et *ExternalTree) NumNodes() int { return len(et.offsets) }

// Query runs the same I/O-optimal walk as Tree.Query but fetches each tree
// node from the index device, charging the block accounting of both the
// index reads and the brick data reads.
func (et *ExternalTree) Query(data blockio.Device, iso float32, visit func(rec []byte) error) (QueryStats, error) {
	fetch := func(n int32) (*Node, error) {
		nodeRec := make([]byte, et.lengths[n])
		if err := et.dev.ReadAt(nodeRec, et.offsets[n]); err != nil {
			return nil, fmt.Errorf("core: reading external node %d: %w", n, err)
		}
		node, err := decodeNode(nodeRec)
		return &node, err
	}
	return walk(et.Layout, et.Root, len(et.offsets), fetch, data, iso, 0, perRecord(et.Layout.RecordSize(), visit))
}
