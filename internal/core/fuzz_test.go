package core

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// hostileHeader is a well-formed 48-byte header (u8, span 9) claiming nodes
// node records, with nothing after it.
func hostileHeader(nodes uint32) []byte {
	var b bytes.Buffer
	(&Tree{Layout: testLayout(), Root: 0}).WriteTo(&b)
	hdr := b.Bytes()
	hdr[44], hdr[45], hdr[46], hdr[47] = byte(nodes), byte(nodes>>8), byte(nodes>>16), byte(nodes>>24)
	return hdr
}

// readTreeAlloc runs ReadTree and reports the bytes the process allocated
// while it ran.
func readTreeAlloc(data []byte) (*Tree, error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tree, err := ReadTree(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return tree, err, after.TotalAlloc - before.TotalAlloc
}

// FuzzReadTree feeds ReadTree bytes a disk may hand back. A rejection is one
// of three errors and never a panic; either way the reader allocates in
// proportion to the input, not to the counts the input claims; and a tree it
// accepts writes back to the bytes it was read from, has a height, and can be
// queried (against a device too small for most of what its entries name —
// the reads fail, the walk returns).
func FuzzReadTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err, alloc := readTreeAlloc(data)
		if budget := uint64(256<<10 + 16*len(data)); alloc > budget {
			t.Fatalf("ReadTree allocated %d B for %d B of input (budget %d)", alloc, len(data), budget)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		var back bytes.Buffer
		n, err := tree.WriteTo(&back)
		if err != nil || n > int64(len(data)) || !bytes.Equal(back.Bytes(), data[:n]) {
			t.Fatalf("WriteTo wrote %d B (err %v) that are not the %d B read", n, err, len(data))
		}
		if h, n := tree.Height(), len(tree.Nodes); h >= n && n > 0 {
			t.Fatalf("height %d of %d nodes", h, n)
		}
		tree.NumEntries()
		if tree.Layout.RecordSize() <= 1<<16 { // a query buffers one record at least
			dev := memDisk(make([]byte, 1<<14))
			for _, iso := range []float32{-1, 0, 64, 128, 192, 255, 300} {
				st, err := tree.Query(dev, iso, func([]byte) error { return nil })
				if st.NodesVisited > len(tree.Nodes) {
					t.Fatalf("iso %v: visited %d of %d nodes (err %v)", iso, st.NodesVisited, len(tree.Nodes), err)
				}
			}
		}
	})
}
