package core

import (
	"errors"
	"fmt"

	"repro/internal/blockio"
	"repro/internal/metacell"
)

// QueryStats summarizes the work of one isosurface query against one disk.
type QueryStats struct {
	ActiveMetacells int // metacell records delivered to the visitor
	NodesVisited    int // tree nodes on the root-to-leaf path
	BulkReads       int // Case-1 contiguous multi-brick reads
	BrickScans      int // Case-2 bricks scanned from the front
	BricksSkipped   int // Case-2 bricks skipped via their MinVMin field
	Batches         int // record batches emitted (QueryBatches granularity)
}

// ErrCorruptIndex is what ReadTree returns for bytes that are not an index,
// and what a query returns when the index it walks names a node outside its
// node table or loops back on itself; test with errors.Is.
var ErrCorruptIndex = errors.New("core: corrupt index")

// QueryBatches streams the records of every metacell whose interval contains
// iso (vmin ≤ iso ≤ vmax) from dev to emit in batches of at most batchRecs
// records (0 selects one disk block's worth), performing the paper's
// I/O-optimal walk: O(log n) index decisions plus O(T/B) block reads for T
// bytes of active metacells. The Case-1 contiguous bulk read is chunked at
// batch granularity and Case-2 brick scans at one block per read (their
// batches may run smaller than batchRecs), so peak memory is one batch —
// never the total active-metacell bytes — regardless of output size. The
// batch slice passed to emit holds nrec records back to back and is reused
// across calls; the consumer must copy what it retains. A Tree's fields are
// exported and may have come from a file, so a root or child link outside
// [-1, len(Nodes)), or a path longer than the node table, is reported as
// ErrCorruptIndex rather than followed.
func (t *Tree) QueryBatches(dev blockio.Device, iso float32, batchRecs int, emit func(batch []byte, nrec int) error) (QueryStats, error) {
	var st QueryStats
	l, nodes := t.Layout, len(t.Nodes)
	recSize := l.RecordSize()
	if batchRecs <= 0 {
		// One disk block's worth of records per batch: Case-2 scans then
		// over-read past the stopping metacell by at most one block, matching
		// the paper's cost model.
		batchRecs = blockio.DefaultBlockSize / recSize
		if batchRecs < 1 {
			batchRecs = 1
		}
	}
	buf := make([]byte, batchRecs*recSize)

	for n := t.Root; n != -1; {
		if n < -1 || int(n) >= nodes {
			return st, fmt.Errorf("%w: link to node %d of %d", ErrCorruptIndex, n, nodes)
		}
		if st.NodesVisited == nodes {
			return st, fmt.Errorf("%w: walk revisits a node (%d nodes)", ErrCorruptIndex, nodes)
		}
		node := &t.Nodes[n]
		st.NodesVisited++
		if iso >= node.VM {
			// Case 1: every metacell in the prefix of bricks with
			// vmax ≥ iso is active (their vmin ≤ vm ≤ iso). The bricks are
			// contiguous on disk, so fetch them with one logical bulk read,
			// issued as sequential batch-sized requests.
			if err := bulkRead(dev, node, iso, recSize, buf, emit, &st); err != nil {
				return st, err
			}
			n = node.Right
		} else {
			// Case 2: every brick has vmax ≥ vm > iso; the active metacells
			// are each brick's prefix with vmin ≤ iso. Bricks whose smallest
			// vmin exceeds iso are skipped with no I/O.
			for ei := range node.Entries {
				e := &node.Entries[ei]
				if e.MinVMin > iso {
					st.BricksSkipped++
					continue
				}
				st.BrickScans++
				if err := scanBrick(l, dev, e, iso, recSize, buf, emit, &st); err != nil {
					return st, err
				}
			}
			n = node.Left
		}
	}
	return st, nil
}

// Query streams the active metacell records one at a time to visit — a thin
// per-record wrapper over QueryBatches with the default (one-block) batch
// size. The record slice passed to visit is reused; the visitor must not
// retain it.
func (t *Tree) Query(dev blockio.Device, iso float32, visit func(rec []byte) error) (QueryStats, error) {
	return t.QueryBatches(dev, iso, 0, perRecord(t.Layout.RecordSize(), visit))
}

// perRecord unpacks each emitted batch into per-record visits.
func perRecord(recSize int, visit func(rec []byte) error) func(batch []byte, nrec int) error {
	return func(batch []byte, nrec int) error {
		for i := 0; i < nrec; i++ {
			if err := visit(batch[i*recSize : (i+1)*recSize]); err != nil {
				return err
			}
		}
		return nil
	}
}

// bulkRead performs the Case-1 read: all bricks with vmax ≥ iso, which are in
// decreasing vmax order and adjacent on disk. The contiguous range is fetched
// as sequential batch-sized requests into buf (no seek between them, so the
// disk-model cost equals a single request), and each chunk is emitted as one
// batch.
func bulkRead(dev blockio.Device, node *Node, iso float32, recSize int, buf []byte, emit func([]byte, int) error, st *QueryStats) error {
	last := -1
	var total int64
	for ei := range node.Entries {
		if node.Entries[ei].VMax < iso {
			break
		}
		last = ei
		total += int64(node.Entries[ei].Count) * int64(recSize)
	}
	if last < 0 {
		return nil
	}
	st.BulkReads++
	off := node.Entries[0].Offset
	remaining := total
	for remaining > 0 {
		chunk := buf
		if int64(len(chunk)) > remaining {
			chunk = chunk[:remaining]
		}
		if err := dev.ReadAt(chunk, off); err != nil {
			return fmt.Errorf("core: bulk read of %d bricks at %d: %w", last+1, node.Entries[0].Offset, err)
		}
		nrec := len(chunk) / recSize
		st.ActiveMetacells += nrec
		st.Batches++
		if err := emit(chunk, nrec); err != nil {
			return err
		}
		remaining -= int64(len(chunk))
		off += int64(len(chunk))
	}
	return nil
}

// scanBrick performs the Case-2 scan of one brick: read records from the
// front until one has vmin > iso or the brick is exhausted, and emit each
// chunk's active prefix as one batch. Reads stay at one disk block per
// request regardless of the batch size, so the over-read past the stopping
// metacell is at most one block — the paper's cost model — and the schedule
// comparison isn't skewed by read granularity.
func scanBrick(l metacell.Layout, dev blockio.Device, e *IndexEntry, iso float32, recSize int, buf []byte, emit func([]byte, int) error, st *QueryStats) error {
	blockRecs := blockio.DefaultBlockSize / recSize
	if blockRecs < 1 {
		blockRecs = 1
	}
	remaining := int(e.Count)
	off := e.Offset
	for remaining > 0 {
		n := len(buf) / recSize
		if n > blockRecs {
			n = blockRecs
		}
		if n > remaining {
			n = remaining
		}
		chunk := buf[:n*recSize]
		if err := dev.ReadAt(chunk, off); err != nil {
			return fmt.Errorf("core: scanning brick at %d: %w", e.Offset, err)
		}
		active := n
		for i := 0; i < n; i++ {
			if metacell.VMinOfRecord(l, chunk[i*recSize:(i+1)*recSize]) > iso {
				active = i // records are vmin-sorted: the prefix has ended
				break
			}
		}
		if active > 0 {
			st.ActiveMetacells += active
			st.Batches++
			if err := emit(chunk[:active*recSize], active); err != nil {
				return err
			}
		}
		if active < n {
			return nil
		}
		remaining -= n
		off += int64(n * recSize)
	}
	return nil
}
