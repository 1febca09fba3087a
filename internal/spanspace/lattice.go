package spanspace

import (
	"sort"

	"repro/internal/metacell"
)

// Lattice is the ISSUE-style span-space search structure (Shen–Hansen–
// Livnat–Johnson, reference [7] of the paper): the span space is divided
// into an L×L lattice of buckets; for an isovalue falling in lattice row k,
// every metacell in a bucket strictly left of column k and strictly above
// row k is active without any further test, and only the buckets in row k
// and column k need element-wise checks.
type Lattice struct {
	L      int
	Lo, Hi float32
	// buckets[i][j] holds the metacells with vmin in bin i and vmax in bin
	// j (i ≤ j).
	buckets [][][]latticeEntry
	total   int
}

type latticeEntry struct {
	vmin, vmax float32
	id         uint32
}

// NewLattice builds an L×L lattice over the metacells' span space.
func NewLattice(cells []metacell.Cell, L int) *Lattice {
	lt := &Lattice{L: L}
	if L <= 0 || len(cells) == 0 {
		return lt
	}
	lt.Lo, lt.Hi = cells[0].VMin, cells[0].VMax
	for _, c := range cells {
		if c.VMin < lt.Lo {
			lt.Lo = c.VMin
		}
		if c.VMax > lt.Hi {
			lt.Hi = c.VMax
		}
	}
	lt.buckets = make([][][]latticeEntry, L)
	for i := range lt.buckets {
		lt.buckets[i] = make([][]latticeEntry, L)
	}
	for _, c := range cells {
		i, j := lt.bin(c.VMin), lt.bin(c.VMax)
		lt.buckets[i][j] = append(lt.buckets[i][j], latticeEntry{c.VMin, c.VMax, c.ID})
		lt.total++
	}
	// Sort boundary-friendly: row buckets by vmin (scanned until vmin > iso)
	// and keep column buckets vmax-sorted descending for the symmetric scan.
	for i := range lt.buckets {
		for j := range lt.buckets[i] {
			b := lt.buckets[i][j]
			sort.Slice(b, func(a, c int) bool {
				if b[a].vmin != b[c].vmin {
					return b[a].vmin < b[c].vmin
				}
				return b[a].id < b[c].id
			})
		}
	}
	return lt
}

// bin maps a value to its lattice bin in [0, L).
func (lt *Lattice) bin(v float32) int {
	span := lt.Hi - lt.Lo
	if span == 0 {
		return 0
	}
	k := int(float32(lt.L) * (v - lt.Lo) / span)
	if k >= lt.L {
		k = lt.L - 1
	}
	if k < 0 {
		k = 0
	}
	return k
}

// QueryStats reports how much of the answer came for free versus via
// element checks.
type QueryStats struct {
	Active       int
	BulkBuckets  int // buckets taken wholesale, no per-element tests
	CheckedCells int // metacells individually tested in boundary buckets
	EmptyBuckets int
}

// Query visits the ID of every active metacell for iso.
func (lt *Lattice) Query(iso float32, visit func(id uint32)) QueryStats {
	var st QueryStats
	if lt.total == 0 || iso < lt.Lo || iso > lt.Hi {
		return st
	}
	k := lt.bin(iso)
	for i := 0; i <= k; i++ {
		for j := k; j < lt.L; j++ {
			b := lt.buckets[i][j]
			if len(b) == 0 {
				st.EmptyBuckets++
				continue
			}
			if i < k && j > k {
				// Interior bucket: vmin < iso's bin start ≤ iso and
				// vmax ≥ next bin start > iso, so everything is active.
				st.BulkBuckets++
				for _, e := range b {
					st.Active++
					visit(e.id)
				}
				continue
			}
			// Boundary bucket (row k or column k): element-wise test.
			for _, e := range b {
				st.CheckedCells++
				if e.vmin <= iso && iso <= e.vmax {
					st.Active++
					visit(e.id)
				}
			}
		}
	}
	return st
}

// SizeBytes returns the packed lattice size: per entry two scalars and an
// ID, plus per bucket a pointer.
func (lt *Lattice) SizeBytes(scalarBytes int) int64 {
	entry := int64(2*scalarBytes + 4)
	return int64(lt.total)*entry + int64(lt.L*lt.L)*8
}
