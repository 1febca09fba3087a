package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/blockio"
	"repro/internal/metacell"
	"repro/internal/rng"
	"repro/internal/volume"
)

// float32Layout returns an F32 layout so endpoints are arbitrary floats.
func float32Layout() metacell.Layout {
	g := volume.New(17, 17, 17, volume.F32)
	return metacell.NewLayout(g, 9)
}

// makeFloatCells fabricates cells with float32 intervals derived from a
// seed, including duplicates and point-adjacent intervals.
func makeFloatCells(l metacell.Layout, n int, seed uint64) []metacell.Cell {
	r := rng.New(seed)
	cells := make([]metacell.Cell, 0, n)
	for i := 0; i < n; i++ {
		a := float32(r.Float64()*2000 - 1000)
		b := float32(r.Float64()*2000 - 1000)
		if a > b {
			a, b = b, a
		}
		if a == b {
			b = a + 1
		}
		if r.Intn(10) == 0 && i > 0 {
			// Duplicate an earlier interval to stress equal endpoints.
			a, b = cells[i-1].VMin, cells[i-1].VMax
		}
		rec := make([]byte, l.RecordSize())
		binary.LittleEndian.PutUint32(rec, uint32(i))
		binary.LittleEndian.PutUint32(rec[4:], math.Float32bits(a))
		cells = append(cells, metacell.Cell{ID: uint32(i), VMin: a, VMax: b, Record: rec})
	}
	return cells
}

// TestPropertyQueryEqualsBruteForce drives random float interval sets and
// random isovalues through the full materialize+query path.
func TestPropertyQueryEqualsBruteForce(t *testing.T) {
	l := float32Layout()
	prop := func(seed uint64, nRaw uint16, isoRaw int16) bool {
		n := int(nRaw)%300 + 1
		cells := makeFloatCells(l, n, seed)
		w := blockio.NewWriter()
		tree, err := Plan(cells).Materialize(l, cells, w)
		if err != nil {
			return false
		}
		dev := w.Store()
		iso := float32(isoRaw) / 16
		want := 0
		for _, c := range cells {
			if c.VMin <= iso && iso <= c.VMax {
				want++
			}
		}
		got := 0
		if _, err := tree.Query(dev, iso, func([]byte) error { got++; return nil }); err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStripedPartition checks that for random inputs and processor
// counts, striping partitions the cells exactly (no loss, no duplication)
// and every disk's active count stays within the per-brick bound.
func TestPropertyStripedPartition(t *testing.T) {
	l := float32Layout()
	prop := func(seed uint64, nRaw uint16, pRaw uint8) bool {
		n := int(nRaw)%200 + 1
		procs := int(pRaw)%7 + 1
		cells := makeFloatCells(l, n, seed)
		plan := Plan(cells)
		ws := make([]RecordWriter, procs)
		bw := make([]*blockio.Writer, procs)
		for i := range ws {
			bw[i] = blockio.NewWriter()
			ws[i] = bw[i]
		}
		trees, err := plan.MaterializeStriped(l, cells, ws)
		if err != nil {
			return false
		}
		total := 0
		for _, tr := range trees {
			total += tr.NumCells
		}
		if total != n {
			return false
		}
		// Query each disk at a random endpoint and check the union size.
		iso := cells[int(seed%uint64(len(cells)))].VMin
		want := 0
		for _, c := range cells {
			if c.VMin <= iso && iso <= c.VMax {
				want++
			}
		}
		got := 0
		for i, tr := range trees {
			dev := bw[i].Store()
			st, err := tr.Query(dev, iso, func([]byte) error { return nil })
			if err != nil {
				return false
			}
			got += st.ActiveMetacells
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertySerializationRoundTrip checks WriteTo/ReadTree over random
// trees.
func TestPropertySerializationRoundTrip(t *testing.T) {
	l := float32Layout()
	prop := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%150 + 1
		cells := makeFloatCells(l, n, seed)
		w := blockio.NewWriter()
		tree, err := Plan(cells).Materialize(l, cells, w)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := tree.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadTree(&buf)
		if err != nil {
			return false
		}
		if len(got.Nodes) != len(tree.Nodes) || got.NumCells != tree.NumCells {
			return false
		}
		for i := range tree.Nodes {
			a, b := tree.Nodes[i], got.Nodes[i]
			if a.VM != b.VM || len(a.Entries) != len(b.Entries) {
				return false
			}
			for j := range a.Entries {
				if a.Entries[j] != b.Entries[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
