package octree

import (
	"testing"

	"repro/internal/metacell"
	"repro/internal/volume"
)

func rmGrid() *volume.Grid { return volume.RichtmyerMeshkov(33, 33, 30, 230, 7) }

func bruteActive(cells []metacell.Cell, iso float32) map[uint32]bool {
	m := map[uint32]bool{}
	for _, c := range cells {
		if c.VMin <= iso && iso <= c.VMax {
			m[c.ID] = true
		}
	}
	return m
}

func TestQueryMatchesBruteForce(t *testing.T) {
	g := rmGrid()
	_, cells := metacell.Extract(g, 9)
	tree := Build(g, 9)
	for iso := float32(0); iso <= 250; iso += 10 {
		want := bruteActive(cells, iso)
		got := map[uint32]bool{}
		tree.Query(iso, func(id uint32) {
			if got[id] {
				t.Fatalf("iso %v: metacell %d visited twice", iso, id)
			}
			got[id] = true
		})
		if len(got) != len(want) {
			t.Fatalf("iso %v: %d active, want %d", iso, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("iso %v: metacell %d missing", iso, id)
			}
		}
	}
}

func TestPruning(t *testing.T) {
	// An isovalue outside the data range must visit only the root.
	tree := Build(rmGrid(), 9)
	st := tree.Query(300, func(uint32) {})
	if st.NodesVisited != 1 || st.LeavesActive != 0 {
		t.Errorf("out-of-range query visited %d nodes, %d leaves", st.NodesVisited, st.LeavesActive)
	}
	// A sparse surface must prune most of the tree.
	g := volume.Sphere(65)
	sp := Build(g, 9)
	stSparse := sp.Query(240, func(uint32) {}) // small shell near the center
	if stSparse.NodesVisited >= len(sp.Nodes) {
		t.Errorf("no pruning: visited %d of %d nodes", stSparse.NodesVisited, len(sp.Nodes))
	}
}

func TestBranchOnNeedDropsConstantRegions(t *testing.T) {
	// A constant volume has no non-constant metacells: empty tree.
	tree := Build(volume.Constant(33, 33, 33, volume.U8, 9), 9)
	if tree.Root != -1 || len(tree.Nodes) != 0 {
		t.Errorf("constant volume built %d nodes", len(tree.Nodes))
	}
	// RM data: the tree must be smaller than a full octree over all
	// metacells would be, since about half the volume is constant.
	g := volume.RichtmyerMeshkov(65, 65, 60, 250, 1)
	l := metacell.NewLayout(g, 9)
	tr := Build(g, 9)
	full := 0
	for n := l.Count(); n > 0; n = n / 8 {
		full += n
	}
	if len(tr.Nodes) >= full {
		t.Errorf("branch-on-need tree (%d nodes) not smaller than full tree (≈%d)", len(tr.Nodes), full)
	}
}

func TestNonPowerOfTwoDims(t *testing.T) {
	// 33×33×30 metacell grid is 4×4×4 — exercise a non-cubic, non-pow2 case
	// explicitly too.
	g := volume.RichtmyerMeshkov(49, 33, 25, 200, 3)
	_, cells := metacell.Extract(g, 9)
	tree := Build(g, 9)
	want := bruteActive(cells, 128)
	got := 0
	tree.Query(128, func(uint32) { got++ })
	if got != len(want) {
		t.Errorf("Query delivered %d, want %d", got, len(want))
	}
}

func TestMinMaxConsistency(t *testing.T) {
	tree := Build(rmGrid(), 9)
	for i, n := range tree.Nodes {
		if n.Leaf {
			continue
		}
		for _, c := range n.Children {
			if c < 0 {
				continue
			}
			ch := tree.Nodes[c]
			if ch.VMin < n.VMin || ch.VMax > n.VMax {
				t.Fatalf("node %d: child interval [%v,%v] outside parent [%v,%v]",
					i, ch.VMin, ch.VMax, n.VMin, n.VMax)
			}
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	tree := Build(rmGrid(), 9)
	if tree.SizeBytes() <= 0 {
		t.Error("zero size")
	}
	if tree.SizeBytes() != int64(len(tree.Nodes))*10 {
		t.Errorf("u8 octree node should cost 10 bytes, got %d total for %d nodes",
			tree.SizeBytes(), len(tree.Nodes))
	}
}
