package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/blockio"
	"repro/internal/geom"
	"repro/internal/march"
	"repro/internal/metacell"
	"repro/internal/rng"
	"repro/internal/volume"
)

// testLayout returns a u8 layout with the paper's 734-byte records.
func testLayout() metacell.Layout {
	g := volume.New(17, 17, 17, volume.U8)
	return metacell.NewLayout(g, 9)
}

// synthCells fabricates n metacells with pseudo-random u8 intervals. Records
// carry a valid ID and vmin; the sample payload is arbitrary.
func synthCells(l metacell.Layout, n int, seed uint64) []metacell.Cell {
	r := rng.New(seed)
	cells := make([]metacell.Cell, 0, n)
	for i := 0; i < n; i++ {
		vmin := float32(r.Intn(250))
		vmax := vmin + 1 + float32(r.Intn(255-int(vmin)))
		rec := make([]byte, l.RecordSize())
		binary.LittleEndian.PutUint32(rec, uint32(i))
		rec[4] = uint8(vmin)
		cells = append(cells, metacell.Cell{ID: uint32(i), VMin: vmin, VMax: vmax, Record: rec})
	}
	return cells
}

func bruteActive(cells []metacell.Cell, iso float32) map[uint32]bool {
	m := map[uint32]bool{}
	for _, c := range cells {
		if c.VMin <= iso && iso <= c.VMax {
			m[c.ID] = true
		}
	}
	return m
}

func materialize(t *testing.T, l metacell.Layout, cells []metacell.Cell) (*Tree, blockio.Device) {
	t.Helper()
	p := Plan(cells)
	w := blockio.NewWriter()
	tree, err := p.Materialize(l, cells, w)
	if err != nil {
		t.Fatal(err)
	}
	return tree, w.Store()
}

func queryIDs(t *testing.T, tree *Tree, dev blockio.Device, iso float32) map[uint32]bool {
	t.Helper()
	got := map[uint32]bool{}
	_, err := tree.Query(dev, iso, func(rec []byte) error {
		id := metacell.IDOfRecord(rec)
		if got[id] {
			t.Fatalf("iso %v: metacell %d delivered twice", iso, id)
		}
		got[id] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestPlanInvariants(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 500, 1)
	p := Plan(cells)
	if tree, _ := materialize(t, l, cells); tree.NumCells != 500 {
		t.Errorf("NumCells = %d", tree.NumCells)
	}
	seen := map[int]bool{}
	for ni, nd := range p.nodes {
		for bi, b := range nd.bricks {
			if len(b.cells) == 0 {
				t.Fatalf("node %d brick %d empty", ni, bi)
			}
			if bi > 0 && nd.bricks[bi-1].vmax <= b.vmax {
				t.Fatalf("node %d bricks not in decreasing vmax order", ni)
			}
			for j, ci := range b.cells {
				c := &cells[ci]
				if seen[ci] {
					t.Fatalf("cell %d assigned twice", ci)
				}
				seen[ci] = true
				if c.VMax != b.vmax {
					t.Fatalf("cell %d vmax %v in brick with vmax %v", ci, c.VMax, b.vmax)
				}
				if !(c.VMin <= nd.vm && nd.vm <= c.VMax) {
					t.Fatalf("cell %d interval [%v,%v] does not straddle node vm %v", ci, c.VMin, c.VMax, nd.vm)
				}
				if j > 0 && cells[b.cells[j-1]].VMin > c.VMin {
					t.Fatalf("node %d brick %d not vmin-sorted", ni, bi)
				}
			}
		}
	}
	if len(seen) != len(cells) {
		t.Errorf("only %d of %d cells assigned", len(seen), len(cells))
	}
}

// TestPlanDeterministic: the plan depends on the set of cells, not on their
// order. Intervals over ±0, ±Inf and many distinct floats, symmetric about
// zero so that the root splits at zero, are shuffled 200 times; every shuffle
// writes the same disk and index bytes, and the root's split value is +0
// (the comparison-sorting plan took its sign from whichever zero sorted
// first).
func TestPlanDeterministic(t *testing.T) {
	l := float32Layout()
	negZero, inf := float32(math.Copysign(0, -1)), float32(math.Inf(1))
	zeros := [2]float32{0, negZero}
	var cells []metacell.Cell
	add := func(vmin, vmax float32) {
		id := uint32(len(cells))
		rec := make([]byte, l.RecordSize())
		binary.LittleEndian.PutUint32(rec, id)
		binary.LittleEndian.PutUint32(rec[4:], math.Float32bits(vmin))
		cells = append(cells, metacell.Cell{ID: id, VMin: vmin, VMax: vmax, Record: rec})
	}
	r := rng.New(27)
	for i := 0; i < 60; i++ {
		x := float32(1+i) + float32(r.Float64())/2 // distinct, and not integers
		switch i % 3 {
		case 0:
			add(-x, zeros[i/3%2])
		case 1:
			add(zeros[i/3%2], x)
		default:
			add(-x, x)
		}
	}
	add(-inf, negZero)
	add(0, inf)
	add(negZero, 0)

	image := func(cells []metacell.Cell) []byte {
		var all []byte
		for _, b := range materializedBytes(t, Plan(cells), l, cells, 3) {
			all = append(all, b...)
		}
		return all
	}
	want := image(cells)
	for s := uint64(0); s < 200; s++ {
		in := shuffled(cells, s)
		if p := Plan(in); math.Float32bits(p.nodes[p.root].vm) != 0 {
			t.Fatalf("shuffle %d: root splits at %v (bits %#x), want +0", s, p.nodes[p.root].vm, math.Float32bits(p.nodes[p.root].vm))
		}
		if !bytes.Equal(image(in), want) {
			t.Fatalf("shuffle %d: disk or index bytes differ from the unshuffled plan's", s)
		}
	}
}

func TestPlanHeightLogarithmic(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 2000, 3)
	tree, _ := materialize(t, l, cells)
	// n ≤ 256 distinct endpoints for u8 data → height well under 2·log2(256).
	if h := tree.Height(); h > 16 {
		t.Errorf("height = %d for u8 data, want ≤ 16", h)
	}
}

func TestEmptyPlan(t *testing.T) {
	l := testLayout()
	w := blockio.NewWriter()
	tree, err := Plan(nil).Materialize(l, nil, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 0 || tree.Height() != -1 {
		t.Errorf("empty plan: nodes=%d height=%d", len(tree.Nodes), tree.Height())
	}
	dev := w.Store()
	st, err := tree.Query(dev, 100, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveMetacells != 0 {
		t.Errorf("empty tree returned %d active metacells", st.ActiveMetacells)
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 800, 4)
	tree, dev := materialize(t, l, cells)
	for iso := float32(-5); iso <= 260; iso += 7 {
		want := bruteActive(cells, iso)
		got := queryIDs(t, tree, dev, iso)
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

func TestQueryAtExactEndpoints(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 200, 5)
	tree, dev := materialize(t, l, cells)
	// Exact endpoint values are the boundary cases of the closed-interval
	// stabbing test.
	for _, c := range cells[:50] {
		for _, iso := range []float32{c.VMin, c.VMax} {
			want := bruteActive(cells, iso)
			got := queryIDs(t, tree, dev, iso)
			if len(got) != len(want) {
				t.Fatalf("iso %v: %d active, want %d", iso, len(got), len(want))
			}
		}
	}
}

func TestQueryIsoOutsideRange(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 100, 6)
	tree, dev := materialize(t, l, cells)
	for _, iso := range []float32{-100, 300} {
		if got := queryIDs(t, tree, dev, iso); len(got) != 0 {
			t.Errorf("iso %v: %d active, want 0", iso, len(got))
		}
	}
}

func TestQuerySingleCell(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 1, 7)
	tree, dev := materialize(t, l, cells)
	c := cells[0]
	mid := (c.VMin + c.VMax) / 2
	if got := queryIDs(t, tree, dev, mid); !got[c.ID] {
		t.Error("single cell not found at its midpoint")
	}
}

func TestQueryIOEfficiency(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 2000, 8)
	tree, dev := materialize(t, l, cells)
	recSize := l.RecordSize()
	for _, iso := range []float32{40, 128, 220} {
		before := dev.Stats()
		st, err := tree.Query(dev, iso, func([]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		io := dev.Stats().Sub(before)
		activeBytes := int64(st.ActiveMetacells) * int64(recSize)
		optimal := activeBytes/blockio.DefaultBlockSize + 1
		// Allow the per-request rounding: each bulk read or brick scan can
		// touch at most 2 partial blocks beyond its payload, plus one block
		// of Case-2 over-read.
		slack := int64(3*(st.BulkReads+st.BrickScans)) + 3
		if io.BlocksRead > optimal+slack {
			t.Errorf("iso %v: %d blocks read, optimal %d + slack %d (stats %+v)",
				iso, io.BlocksRead, optimal, slack, st)
		}
		// Seeks are bounded by the number of separate read sites, not the
		// number of active metacells.
		if io.Seeks > int64(st.BulkReads+st.BrickScans) {
			t.Errorf("iso %v: %d seeks for %d read sites", iso, io.Seeks, st.BulkReads+st.BrickScans)
		}
	}
}

func TestCase1IsBulk(t *testing.T) {
	// An isovalue at the global maximum forces Case 1 at the root; the whole
	// answer should arrive in few bulk reads and no brick scans on that path.
	l := testLayout()
	cells := synthCells(l, 500, 9)
	var hi float32
	for _, c := range cells {
		if c.VMax > hi {
			hi = c.VMax
		}
	}
	tree, dev := materialize(t, l, cells)
	st, err := tree.Query(dev, hi, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.BulkReads == 0 {
		t.Error("no bulk reads for a right-path query")
	}
	if st.ActiveMetacells != len(bruteActive(cells, hi)) {
		t.Errorf("active = %d, want %d", st.ActiveMetacells, len(bruteActive(cells, hi)))
	}
}

func TestBricksSkippedWithoutIO(t *testing.T) {
	// Brick MinVMin fields must prevent I/O for bricks with no active prefix.
	l := testLayout()
	// Two populations: intervals hugging the top of the range and intervals
	// hugging the bottom. A low isovalue makes the top bricks skippable.
	var cells []metacell.Cell
	r := rng.New(10)
	for i := 0; i < 200; i++ {
		var vmin, vmax float32
		if i%2 == 0 {
			vmin, vmax = float32(200+r.Intn(20)), float32(240+r.Intn(15))
		} else {
			vmin, vmax = float32(r.Intn(20)), float32(230+r.Intn(20))
		}
		rec := make([]byte, l.RecordSize())
		binary.LittleEndian.PutUint32(rec, uint32(i))
		rec[4] = uint8(vmin)
		cells = append(cells, metacell.Cell{ID: uint32(i), VMin: vmin, VMax: vmax, Record: rec})
	}
	tree, dev := materialize(t, l, cells)
	st, err := tree.Query(dev, 10, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.BricksSkipped == 0 {
		t.Errorf("expected skipped bricks, stats %+v", st)
	}
}

func TestStripedUnionEqualsSequential(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 700, 11)
	p := Plan(cells)
	for _, procs := range []int{1, 2, 3, 4, 8} {
		ws := make([]*blockio.Writer, procs)
		for i := range ws {
			ws[i] = blockio.NewWriter()
		}
		trees, err := p.MaterializeStriped(l, cells, asSinks(ws))
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, tr := range trees {
			total += tr.NumCells
		}
		if total != len(cells) {
			t.Fatalf("p=%d: striped trees hold %d cells, want %d", procs, total, len(cells))
		}
		for _, iso := range []float32{30, 128, 250} {
			want := bruteActive(cells, iso)
			got := map[uint32]bool{}
			for i, tr := range trees {
				dev := ws[i].Store()
				for id := range queryIDs(t, tr, dev, iso) {
					if got[id] {
						t.Fatalf("p=%d iso=%v: metacell %d on two disks", procs, iso, id)
					}
					got[id] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("p=%d iso=%v: union %d, want %d", procs, iso, len(got), len(want))
			}
		}
	}
}

func TestStripedBalanceBound(t *testing.T) {
	// The provable guarantee: per brick the split is within ±1, so across
	// disks the active counts differ by at most the number of active bricks.
	l := testLayout()
	cells := synthCells(l, 2000, 12)
	p := Plan(cells)
	seq, _ := materialize(t, l, cells)
	bricks := seq.NumEntries() // one index entry per brick of the plan
	const procs = 4
	ws := make([]*blockio.Writer, procs)
	for i := range ws {
		ws[i] = blockio.NewWriter()
	}
	trees, err := p.MaterializeStriped(l, cells, asSinks(ws))
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]blockio.Device, procs)
	for i := range devs {
		devs[i] = ws[i].Store()
	}
	for iso := float32(5); iso <= 250; iso += 15 {
		counts := make([]int, procs)
		maxBricks := 0
		for i, tr := range trees {
			st, err := tr.Query(devs[i], iso, func([]byte) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = st.ActiveMetacells
			if b := st.BulkReads + st.BrickScans + st.BricksSkipped; b > maxBricks {
				maxBricks = b
			}
		}
		lo, hi := counts[0], counts[0]
		for _, c := range counts {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if hi-lo > bricks {
			t.Errorf("iso %v: count spread %d exceeds brick count %d (counts %v)", iso, hi-lo, bricks, counts)
		}
	}
}

func TestStripedBricksContiguous(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 600, 13)
	p := Plan(cells)
	ws := []*blockio.Writer{blockio.NewWriter(), blockio.NewWriter(), blockio.NewWriter()}
	trees, err := p.MaterializeStriped(l, cells, asSinks(ws))
	if err != nil {
		t.Fatal(err)
	}
	rec := int64(l.RecordSize())
	for pi, tr := range trees {
		for ni, nd := range tr.Nodes {
			for ei := 1; ei < len(nd.Entries); ei++ {
				prev := nd.Entries[ei-1]
				if prev.Offset+int64(prev.Count)*rec != nd.Entries[ei].Offset {
					t.Fatalf("disk %d node %d: bricks not contiguous", pi, ni)
				}
			}
		}
	}
}

func TestIndexSizeSmall(t *testing.T) {
	// The headline Table-1 property: for one-byte data the index must stay
	// tiny regardless of metacell count (n ≤ 256 distinct endpoints).
	l := testLayout()
	cells := synthCells(l, 20000, 14)
	tree, _ := materialize(t, l, cells)
	dataSize := int64(len(cells)) * int64(l.RecordSize())
	if tree.IndexSizeBytes() > 100*1024 {
		t.Errorf("index = %d bytes for u8 data, want well under 100 KB", tree.IndexSizeBytes())
	}
	if tree.IndexSizeBytes()*100 > dataSize {
		t.Errorf("index (%d B) exceeds 1%% of data (%d B)", tree.IndexSizeBytes(), dataSize)
	}
}

func TestTreeRoundTrip(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 400, 15)
	tree, dev := materialize(t, l, cells)

	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != tree.Root || got.NumCells != tree.NumCells || len(got.Nodes) != len(tree.Nodes) {
		t.Fatal("tree header mismatch after round trip")
	}
	if got.Layout != tree.Layout {
		t.Fatalf("layout mismatch: %+v vs %+v", got.Layout, tree.Layout)
	}
	for i := range tree.Nodes {
		a, b := tree.Nodes[i], got.Nodes[i]
		if a.VM != b.VM || a.Left != b.Left || a.Right != b.Right || len(a.Entries) != len(b.Entries) {
			t.Fatalf("node %d mismatch", i)
		}
		for j := range a.Entries {
			if a.Entries[j] != b.Entries[j] {
				t.Fatalf("node %d entry %d mismatch", i, j)
			}
		}
	}
	// The deserialized tree must answer queries identically.
	for _, iso := range []float32{50, 150} {
		if a, b := queryIDs(t, tree, dev, iso), queryIDs(t, got, dev, iso); len(a) != len(b) {
			t.Errorf("iso %v: %d vs %d active after round trip", iso, len(a), len(b))
		}
	}
}

func TestTreeFileRoundTrip(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 100, 16)
	tree, _ := materialize(t, l, cells)
	path := filepath.Join(t.TempDir(), "index.cit")
	if err := tree.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTreeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEntries() != tree.NumEntries() {
		t.Error("entry count mismatch after file round trip")
	}
}

func TestReadTreeBadInput(t *testing.T) {
	if _, err := ReadTree(bytes.NewReader(nil)); err == nil {
		t.Error("empty index should fail")
	}
	if _, err := ReadTree(bytes.NewReader(make([]byte, 48))); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("bad magic: error = %v, want ErrCorruptIndex", err)
	}
	// A good 48-byte header claiming 2^24 nodes and carrying none: the reader
	// must run out of input, not make room for them first (that was 640 MB).
	_, err, alloc := readTreeAlloc(hostileHeader(1 << 24))
	if !errors.Is(err, io.EOF) {
		t.Errorf("header without nodes: error = %v, want io.EOF", err)
	}
	if alloc >= 1<<20 {
		t.Errorf("header without nodes: ReadTree allocated %d B, want < 1 MB", alloc)
	}
	// A span past metacell.MaxSpan names records no welder welds.
	for _, span := range []byte{metacell.MaxSpan + 1, 100} {
		hdr := hostileHeader(0)
		hdr[4], hdr[5], hdr[6], hdr[7] = span, 0, 0, 0
		if _, err := ReadTree(bytes.NewReader(hdr)); !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("span %d: error = %v, want ErrCorruptIndex", span, err)
		}
	}
}

// TestCorruptIndexLinks gives the tree a root or child link that leaves the
// node table or loops. A Tree assembled in memory (its fields are exported)
// must fail its walk with ErrCorruptIndex, not index out of range or spin;
// the same tree written to a file must not load at all.
func TestCorruptIndexLinks(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 300, 23)
	good, dev := materialize(t, l, cells)
	past := int32(len(good.Nodes) + 5)
	corruptions := []struct {
		name        string
		root, child func(root int32) int32 // nil leaves the link alone
	}{
		{name: "root past the node table", root: func(int32) int32 { return past }},
		{name: "root below -1", root: func(int32) int32 { return -2 }},
		{name: "child past the node table", child: func(int32) int32 { return past }},
		{name: "child links to itself", child: func(root int32) int32 { return root }},
	}
	for _, c := range corruptions {
		t.Run("in-memory/"+c.name, func(t *testing.T) {
			bad := *good
			bad.Nodes = append([]Node(nil), good.Nodes...)
			if c.child != nil {
				n := &bad.Nodes[bad.Root]
				n.Left, n.Right = c.child(bad.Root), c.child(bad.Root)
			}
			if c.root != nil {
				bad.Root = c.root(bad.Root)
			}
			if _, err := bad.Query(dev, 128, func([]byte) error { return nil }); !errors.Is(err, ErrCorruptIndex) {
				t.Errorf("Query error = %v, want ErrCorruptIndex", err)
			}
			var file bytes.Buffer
			if _, err := bad.WriteTo(&file); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadTree(&file); !errors.Is(err, ErrCorruptIndex) {
				t.Errorf("ReadTree error = %v, want ErrCorruptIndex", err)
			}
		})
	}
}

func TestQueryFaultPropagates(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 300, 17)
	p := Plan(cells)
	w := blockio.NewWriter()
	tree, err := p.Materialize(l, cells, w)
	if err != nil {
		t.Fatal(err)
	}
	dev := &blockio.FaultDevice{Inner: w.Store(), FailEvery: 1}
	_, err = tree.Query(dev, 128, func([]byte) error { return nil })
	if !errors.Is(err, blockio.ErrInjected) {
		t.Errorf("query error = %v, want injected fault", err)
	}
}

func TestQueryVisitorErrorStops(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 300, 18)
	tree, dev := materialize(t, l, cells)
	sentinel := errors.New("stop")
	calls := 0
	_, err := tree.Query(dev, 128, func([]byte) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Errorf("visitor called %d times after error", calls)
	}
}

func TestEndToEndTrianglesMatchReference(t *testing.T) {
	// Full pipeline on RM data: extract metacells, build CIT, query, march —
	// must equal marching the raw grid.
	g := volume.RichtmyerMeshkov(33, 33, 30, 220, 21)
	l, cells := metacell.Extract(g, 9)
	tree, dev := materialize(t, l, cells)
	var w march.Welder
	for _, iso := range []float32{60, 128, 190} {
		var mesh geom.Mesh
		_, err := tree.Query(dev, iso, func(rec []byte) error {
			_, err := w.Record(l, rec, iso, &mesh)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := march.Grid(g, iso)
		if mesh.Len() != ref.Len() {
			t.Errorf("iso %v: %d triangles via CIT, %d reference", iso, mesh.Len(), ref.Len())
		}
	}
}

func TestFloat32Endpoints(t *testing.T) {
	// The CIT must also handle float scalar fields (large n regime).
	g := volume.PressureLike(20, 3)
	l, cells := metacell.Extract(g, 5)
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	tree, dev := materialize(t, l, cells)
	isos := []float32{}
	for _, c := range cells[:10] {
		isos = append(isos, (c.VMin+c.VMax)/2, c.VMin, c.VMax)
	}
	for _, iso := range isos {
		want := bruteActive(cells, iso)
		got := queryIDs(t, tree, dev, iso)
		if len(got) != len(want) {
			t.Fatalf("iso %v: %d active, want %d", iso, len(got), len(want))
		}
	}
}

func TestMedianEndpoint(t *testing.T) {
	l := testLayout()
	cells := []metacell.Cell{
		{ID: 0, VMin: 0, VMax: 10},
		{ID: 1, VMin: 20, VMax: 30},
	}
	_ = l
	vm := medianEndpoint(cells, []int{0, 1})
	// Distinct endpoints {0,10,20,30}: median (index 2) = 20.
	if vm != 20 {
		t.Errorf("median = %v, want 20", vm)
	}
}

func TestCountActive(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 400, 19)
	tree, dev := materialize(t, l, cells)
	st, err := tree.Query(dev, 100, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := len(bruteActive(cells, 100)); st.ActiveMetacells != want {
		t.Errorf("ActiveMetacells = %d, want %d", st.ActiveMetacells, want)
	}
}

func TestEntriesPerLevelBound(t *testing.T) {
	// Paper: at most n/2 index entries at each level, O(n log n) total,
	// where n is the number of distinct endpoints. Verify the total bound.
	l := testLayout()
	cells := synthCells(l, 5000, 20)
	endpoints := map[float32]struct{}{}
	for _, c := range cells {
		endpoints[c.VMin] = struct{}{}
		endpoints[c.VMax] = struct{}{}
	}
	n := float64(len(endpoints))
	tree, _ := materialize(t, l, cells)
	bound := n * (math.Log2(n) + 2)
	if float64(tree.NumEntries()) > bound {
		t.Errorf("entries = %d exceeds n·log n bound %.0f (n=%d, height=%d)",
			tree.NumEntries(), bound, len(endpoints), tree.Height())
	}
}

func TestQueryStatsNodesVisited(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 1000, 22)
	tree, dev := materialize(t, l, cells)
	st, err := tree.Query(dev, 128, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesVisited > tree.Height()+1 {
		t.Errorf("visited %d nodes, tree height %d: not a root-to-leaf walk", st.NodesVisited, tree.Height())
	}
}

func TestStripedDeterministic(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 500, 23)
	p := Plan(cells)
	run := func() []byte {
		ws := []*blockio.Writer{blockio.NewWriter(), blockio.NewWriter()}
		if _, err := p.MaterializeStriped(l, cells, asSinks(ws)); err != nil {
			t.Fatal(err)
		}
		return append(diskBytes(t, ws[0]), diskBytes(t, ws[1])...)
	}
	if !bytes.Equal(run(), run()) {
		t.Error("striped materialization not deterministic")
	}
}

func TestMaterializeStripedNoWriters(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 10, 24)
	if _, err := Plan(cells).MaterializeStriped(l, cells, nil); err == nil {
		t.Error("striping across zero writers should fail")
	}
}

// TestPlanRefusesWhatIsNotAnInterval: a cell whose vmin is above its vmax,
// or is NaN, used to panic the median split ("produced an empty node"), or to
// be indexed where no query finds it. Both materializations return
// ErrBadInterval and write nothing.
func TestPlanRefusesWhatIsNotAnInterval(t *testing.T) {
	l := testLayout()
	nan := float32(math.NaN())
	for name, bad := range map[string][2]float32{
		"all-NaN metacell": {float32(math.Inf(1)), float32(math.Inf(-1))},
		"inverted":         {9, 3},
		"NaN vmin":         {nan, 3},
		"NaN vmax":         {3, nan},
	} {
		cells := synthCells(l, 10, 24)
		cells[7].VMin, cells[7].VMax = bad[0], bad[1]
		p := Plan(cells)
		w := blockio.NewWriter()
		if _, err := p.Materialize(l, cells, w); !errors.Is(err, ErrBadInterval) || w.Offset() != 0 {
			t.Errorf("%s: Materialize: err = %v after %d bytes, want ErrBadInterval and none", name, err, w.Offset())
		}
		if _, err := p.MaterializeStriped(l, cells, []RecordWriter{w}); !errors.Is(err, ErrBadInterval) || w.Offset() != 0 {
			t.Errorf("%s: MaterializeStriped: err = %v after %d bytes, want ErrBadInterval and none", name, err, w.Offset())
		}
	}
}

func TestBrickOrderOnDisk(t *testing.T) {
	// Records within a node's disk region must be vmin-sorted within each
	// brick and bricks in decreasing vmax order; verify via a full readback.
	l := testLayout()
	cells := synthCells(l, 300, 25)
	p := Plan(cells)
	w := blockio.NewWriter()
	tree, err := p.Materialize(l, cells, w)
	if err != nil {
		t.Fatal(err)
	}
	data := diskBytes(t, w)
	byID := map[uint32]metacell.Cell{}
	for _, c := range cells {
		byID[c.ID] = c
	}
	rec := l.RecordSize()
	for _, nd := range tree.Nodes {
		for _, e := range nd.Entries {
			prev := float32(math.Inf(-1))
			for i := int64(0); i < int64(e.Count); i++ {
				off := e.Offset + i*int64(rec)
				id := metacell.IDOfRecord(data[off : off+4])
				c := byID[id]
				if c.VMax != e.VMax {
					t.Fatalf("brick vmax %v contains cell with vmax %v", e.VMax, c.VMax)
				}
				if c.VMin < prev {
					t.Fatalf("brick not vmin-sorted")
				}
				prev = c.VMin
			}
		}
	}
}

func sortedIDs(m map[uint32]bool) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestStripedSameAnswerAsSequentialExactIDs(t *testing.T) {
	l := testLayout()
	cells := synthCells(l, 300, 26)
	p := Plan(cells)
	seqW := blockio.NewWriter()
	seqTree, err := p.Materialize(l, cells, seqW)
	if err != nil {
		t.Fatal(err)
	}
	seqDev := seqW.Store()

	ws := []*blockio.Writer{blockio.NewWriter(), blockio.NewWriter(), blockio.NewWriter(), blockio.NewWriter()}
	trees, err := p.MaterializeStriped(l, cells, asSinks(ws))
	if err != nil {
		t.Fatal(err)
	}
	iso := float32(117)
	seq := queryIDs(t, seqTree, seqDev, iso)
	par := map[uint32]bool{}
	for i, tr := range trees {
		for id := range queryIDs(t, tr, ws[i].Store(), iso) {
			par[id] = true
		}
	}
	a, b := sortedIDs(seq), sortedIDs(par)
	if len(a) != len(b) {
		t.Fatalf("id sets differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("id sets differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// asSinks adapts writers to the RecordWriter slice MaterializeStriped takes.
func asSinks(ws []*blockio.Writer) []RecordWriter {
	s := make([]RecordWriter, len(ws))
	for i, w := range ws {
		s[i] = w
	}
	return s
}

// diskBytes reads a memory writer's whole node disk back through its store.
func diskBytes(t testing.TB, w *blockio.Writer) []byte {
	t.Helper()
	data := make([]byte, w.Offset())
	if err := w.Store().ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return data
}

// memDisk returns a memory node disk holding data.
func memDisk(data []byte) *blockio.Store {
	w := blockio.NewWriter()
	w.Append(data)
	return w.Store()
}
