package spanspace

import (
	"testing"

	"repro/internal/metacell"
	"repro/internal/volume"
)

func rmCells(t *testing.T) []metacell.Cell {
	t.Helper()
	g := volume.RichtmyerMeshkov(65, 65, 60, 230, 3)
	_, cells := metacell.Extract(g, 9)
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	return cells
}

func TestHistogram(t *testing.T) {
	cells := rmCells(t)
	h := Histogram(cells, 16)
	if h.Total() != len(cells) {
		t.Errorf("histogram total %d, want %d", h.Total(), len(cells))
	}
	// Span space is above the diagonal: vmax ≥ vmin for every metacell, so
	// bins strictly below the diagonal must be empty.
	for i := 0; i < h.Bins; i++ {
		for j := 0; j < i; j++ {
			if h.Count[i][j] != 0 {
				t.Fatalf("bin (%d,%d) below diagonal has %d cells", i, j, h.Count[i][j])
			}
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := Histogram(nil, 8)
	if h.Total() != 0 {
		t.Error("empty histogram should be empty")
	}
}

func TestRangePartitionCoversAllCells(t *testing.T) {
	cells := rmCells(t)
	rp := NewRangePartition(cells, 4)
	// Sum of distributions at an isovalue must equal the brute-force count.
	for _, iso := range []float32{30, 128, 220} {
		want := 0
		for _, c := range cells {
			if c.VMin <= iso && iso <= c.VMax {
				want++
			}
		}
		got := 0
		for _, n := range rp.Distribution(iso) {
			got += n
		}
		if got != want {
			t.Errorf("iso %v: distribution sums to %d, want %d", iso, got, want)
		}
	}
}

func TestRangePartitionIsUnbalancedSomewhere(t *testing.T) {
	// The baseline's defect (and the reason the paper stripes bricks): for
	// some isovalue the range-partition distribution is notably unbalanced.
	cells := rmCells(t)
	rp := NewRangePartition(cells, 4)
	worst := 1.0
	for iso := float32(10); iso <= 210; iso += 10 {
		counts := rp.Distribution(iso)
		total := 0
		for _, c := range counts {
			total += c
		}
		if total < 100 {
			continue
		}
		if im := Imbalance(counts); im > worst {
			worst = im
		}
	}
	if worst < 1.3 {
		t.Errorf("worst range-partition imbalance = %.2f, expected clearly above 1.3", worst)
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]int{10, 10, 10, 10}); got != 1 {
		t.Errorf("balanced imbalance = %v", got)
	}
	if got := Imbalance([]int{40, 0, 0, 0}); got != 4 {
		t.Errorf("fully skewed imbalance = %v, want 4", got)
	}
	if got := Imbalance([]int{0, 0}); got != 1 {
		t.Errorf("empty imbalance = %v, want 1", got)
	}
}

func TestRangePartitionDegenerate(t *testing.T) {
	rp := NewRangePartition(nil, 4)
	if len(rp.Distribution(10)) != 4 {
		t.Error("empty partition should still report per-proc zeros")
	}
	rp0 := NewRangePartition(rmCells(t), 0)
	if len(rp0.Distribution(10)) != 0 {
		t.Error("zero procs should yield empty distribution")
	}
}

func TestEntryIndexTriangular(t *testing.T) {
	seen := map[int]bool{}
	for j := 0; j < 4; j++ {
		for i := 0; i <= j; i++ {
			e := entryIndex(i, j)
			if seen[e] {
				t.Fatalf("entry (%d,%d) collides", i, j)
			}
			seen[e] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("4×4 triangular entries = %d, want 10", len(seen))
	}
	if entryIndex(2, 1) != entryIndex(1, 2) {
		t.Error("entryIndex not symmetric")
	}
}

func TestLatticeMatchesBruteForce(t *testing.T) {
	cells := rmCells(t)
	for _, L := range []int{1, 4, 16, 64} {
		lt := NewLattice(cells, L)
		for iso := float32(0); iso <= 250; iso += 25 {
			want := map[uint32]bool{}
			for _, c := range cells {
				if c.VMin <= iso && iso <= c.VMax {
					want[c.ID] = true
				}
			}
			got := map[uint32]bool{}
			lt.Query(iso, func(id uint32) {
				if got[id] {
					t.Fatalf("L=%d iso=%v: %d visited twice", L, iso, id)
				}
				got[id] = true
			})
			if len(got) != len(want) {
				t.Fatalf("L=%d iso=%v: %d active, want %d", L, iso, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("L=%d iso=%v: %d missing", L, iso, id)
				}
			}
		}
	}
}

func TestLatticeBulkDominates(t *testing.T) {
	// With a reasonably fine lattice most of the answer must come from
	// wholesale buckets, not element checks — the point of ISSUE.
	cells := rmCells(t)
	lt := NewLattice(cells, 32)
	st := lt.Query(110, func(uint32) {})
	if st.Active == 0 {
		t.Fatal("no actives")
	}
	if st.CheckedCells > st.Active {
		t.Errorf("checked %d cells for %d actives: boundary work dominates", st.CheckedCells, st.Active)
	}
	if st.BulkBuckets == 0 {
		t.Error("no wholesale buckets")
	}
}

func TestLatticeEdgeCases(t *testing.T) {
	cells := rmCells(t)
	lt := NewLattice(cells, 8)
	if lt.Query(-10, func(uint32) {}).Active != 0 || lt.Query(300, func(uint32) {}).Active != 0 {
		t.Error("out-of-range isovalues should be empty")
	}
	if NewLattice(nil, 8).Query(10, func(uint32) {}).Active != 0 {
		t.Error("empty lattice should be empty")
	}
	if NewLattice(cells, 0).Query(10, func(uint32) {}).Active != 0 {
		t.Error("L=0 lattice should be empty")
	}
	if lt.SizeBytes(1) <= 0 {
		t.Error("zero size")
	}
}
