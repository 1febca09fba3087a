package bbio

import (
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/metacell"
	"repro/internal/volume"
)

func buildRM(t *testing.T) (metacell.Layout, []metacell.Cell, *Tree, blockio.Device) {
	t.Helper()
	g := volume.RichtmyerMeshkov(33, 33, 30, 230, 9)
	l, cells := metacell.Extract(g, 9)
	w := blockio.NewWriter()
	tree, err := Build(l, cells, w)
	if err != nil {
		t.Fatal(err)
	}
	return l, cells, tree, blockio.NewStore(w.Bytes(), blockio.DefaultBlockSize)
}

func TestQueryMatchesBruteForce(t *testing.T) {
	_, cells, tree, dev := buildRM(t)
	for _, iso := range []float32{60, 128, 190} {
		want := map[uint32]bool{}
		for _, c := range cells {
			if c.VMin <= iso && iso <= c.VMax {
				want[c.ID] = true
			}
		}
		got := map[uint32]bool{}
		st, err := tree.Query(dev, iso, func(rec []byte) error {
			got[metacell.IDOfRecord(rec)] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || st.ActiveMetacells != len(want) {
			t.Fatalf("iso %v: %d active (stats %d), want %d", iso, len(got), st.ActiveMetacells, len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("iso %v: missing %d", iso, id)
			}
		}
		if st.DataReads != len(want) {
			t.Errorf("iso %v: %d data reads for %d metacells (must be one per metacell)", iso, st.DataReads, len(want))
		}
	}
}

func TestScatteredReadsCostMoreSeeksThanCIT(t *testing.T) {
	// The motivating comparison: the ID-ordered BBIO layout needs far more
	// seeks than the compact interval tree's contiguous bricks. A spherical
	// shell makes the point: its active metacells are scattered short runs
	// in spatial ID order, but contiguous bricks in span-space order.
	g := volume.Sphere(65)
	l, cells := metacell.Extract(g, 9)

	wB := blockio.NewWriter()
	bb, err := Build(l, cells, wB)
	if err != nil {
		t.Fatal(err)
	}
	devB := blockio.NewStore(wB.Bytes(), blockio.DefaultBlockSize)

	wC := blockio.NewWriter()
	cit, err := core.Plan(cells).Materialize(l, cells, wC)
	if err != nil {
		t.Fatal(err)
	}
	devC := blockio.NewStore(wC.Bytes(), blockio.DefaultBlockSize)

	const iso = 128
	stB, err := bb.Query(devB, iso, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	stC, err := cit.Query(devC, iso, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stB.ActiveMetacells != stC.ActiveMetacells {
		t.Fatalf("baselines disagree on active set: %d vs %d", stB.ActiveMetacells, stC.ActiveMetacells)
	}
	sB, sC := devB.Stats(), devC.Stats()
	// Read amplification: one ~734 B request per metacell, where the CIT's
	// contiguous bricks pack ~11 records per block. The accounting credits
	// sequential requests continuing within one block (drive-buffer reuse),
	// so BBIO's runs of adjacent actives soften the ratio; the scattered
	// remainder still re-reads well over 1.5× the CIT's distinct blocks.
	if 2*sB.BlocksRead < 3*sC.BlocksRead {
		t.Errorf("BBIO read amplification too low: %d blocks vs CIT %d", sB.BlocksRead, sC.BlocksRead)
	}
	if sB.Seeks < sC.Seeks {
		t.Errorf("BBIO seeks (%d) below CIT seeks (%d)", sB.Seeks, sC.Seeks)
	}
}

func TestIndexAccounting(t *testing.T) {
	_, _, tree, _ := buildRM(t)
	if tree.nodeBlocks <= 0 {
		t.Error("no index blocks")
	}
	if tree.IndexSizeBytes() != int64(tree.nodeBlocks)*blockio.DefaultBlockSize {
		t.Error("index size inconsistent with block count")
	}
	if tree.it.Count(128) == 0 {
		t.Error("Count returned nothing at a mid isovalue")
	}
	st, err := tree.Query(blockio.NewStore(nil, 0), 300, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveMetacells != 0 {
		t.Error("out-of-range isovalue returned metacells")
	}
	if st.IndexBlockReads <= 0 {
		t.Error("index traversal should charge block reads")
	}
}

func TestDispatchMakespan(t *testing.T) {
	m := DispatchModel{Workers: 4, PerJob: time.Millisecond, JobDuration: 2 * time.Millisecond}
	// 100 jobs: host serial = 100 ms; workers = 25 jobs × 2 ms = 50 ms →
	// host-bound at 100 ms.
	if got := m.Makespan(100); got != 100*time.Millisecond {
		t.Errorf("host-bound makespan = %v, want 100ms", got)
	}
	// Cheap dispatch: worker-bound.
	m.PerJob = 100 * time.Microsecond
	if got := m.Makespan(100); got != 50*time.Millisecond {
		t.Errorf("worker-bound makespan = %v, want 50ms", got)
	}
	if (DispatchModel{}).Makespan(10) != 0 {
		t.Error("zero workers should yield zero makespan")
	}
}

func TestHostDispatchScalesWorseThanIndependentNodes(t *testing.T) {
	// The paper's §2 criticism quantified: with per-job host overhead, going
	// from 4 to 8 workers barely helps once the host saturates.
	m4 := DispatchModel{Workers: 4, PerJob: time.Millisecond, JobDuration: 3 * time.Millisecond}
	m8 := m4
	m8.Workers = 8
	const jobs = 10000
	t4, t8 := m4.Makespan(jobs), m8.Makespan(jobs)
	speedup := float64(t4) / float64(t8)
	if speedup > 1.5 {
		t.Errorf("host-bound speedup 4→8 workers = %.2f, expected ≈1 (host saturated)", speedup)
	}
}
