package harness

import (
	"context"
	"slices"
	"time"

	"repro/internal/bbio"
	"repro/internal/blockio"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/intervaltree"
	"repro/internal/march"
	"repro/internal/metacell"
	"repro/internal/octree"
	"repro/internal/spanspace"
)

// ---------------------------------------------------------------------------
// Ablation A — index structures: CIT vs standard interval tree vs BBIO.

// IndexAblationRow compares index structures on the standard RM workload.
type IndexAblationRow struct {
	Structure string `col:"structure"`
	Entries   int    `col:"entries"`
	SizeBytes int64  `col:"size,bytes"`
	Height    int    `col:"height"`
}

// AblationIndexStructures builds all three index structures over the same
// metacell set.
func AblationIndexStructures(cfg RMConfig) ([]IndexAblationRow, error) {
	g := Volume(cfg)
	l, cells := metacell.Extract(g, cfg.span())

	cit, err := core.Plan(cells).Materialize(l, cells, nullWriter())
	if err != nil {
		return nil, err
	}
	ivs := make([]intervaltree.Interval, len(cells))
	for i, c := range cells {
		ivs[i] = intervaltree.Interval{VMin: c.VMin, VMax: c.VMax, ID: c.ID}
	}
	it := intervaltree.Build(g.Fmt, ivs)
	bb, err := bbio.Build(l, cells, blockio.NewWriter())
	if err != nil {
		return nil, err
	}
	return []IndexAblationRow{
		{"compact interval tree", cit.NumEntries(), cit.IndexSizeBytes(), cit.Height()},
		{"standard interval tree", it.NumListEntries(), it.SizeBytes(), it.Height()},
		{"BBIO (blocked) tree", it.NumIntervals(), bb.IndexSizeBytes(), it.Height()},
	}, nil
}

// ---------------------------------------------------------------------------
// Ablation B — data distribution: brick striping vs range partition vs
// block round-robin, judged by worst-case imbalance over the sweep.

// DistributionRow summarizes one distribution scheme.
type DistributionRow struct {
	Scheme      string  `col:"scheme"`
	WorstMaxAvg float64 `col:"worst max/avg,%.3f"` // over the isovalue sweep
	MeanMaxAvg  float64 `col:"mean max/avg,%.3f"`
	WorstIso    float32 `col:"worst isovalue,%.0f"`
}

// AblationDistribution compares the three distribution schemes on the RM
// workload for the given node count.
func AblationDistribution(ctx context.Context, cfg RMConfig, procs int) ([]DistributionRow, error) {
	g := Volume(cfg)
	_, cells := metacell.Extract(g, cfg.span())

	// Scheme 1: the paper's brick striping, via the real engine.
	striped, err := BalanceTable(ctx, cfg, procs, "metacells")
	if err != nil {
		return nil, err
	}
	rowStripe := DistributionRow{Scheme: "brick striping (paper)"}
	var sum float64
	for _, r := range striped {
		if r.MaxAvg > rowStripe.WorstMaxAvg {
			rowStripe.WorstMaxAvg, rowStripe.WorstIso = r.MaxAvg, r.Iso
		}
		sum += r.MaxAvg
	}
	rowStripe.MeanMaxAvg = sum / float64(len(striped))

	// Scheme 2: range partition (Zhang–Bajaj–Blanke).
	rowRange := sweepImbalance("range partition [21]", spanspace.NewRangePartition(cells, procs).Distribution)

	// Scheme 3: spatial block round-robin (metacell ID modulo p), a naive
	// but common distribution.
	rowRR := sweepImbalance("spatial round-robin", func(iso float32) []int {
		counts := make([]int, procs)
		for _, c := range cells {
			if c.VMin <= iso && iso <= c.VMax {
				counts[int(c.ID)%procs]++
			}
		}
		return counts
	})
	return []DistributionRow{rowStripe, rowRange, rowRR}, nil
}

// sweepImbalance summarizes a distribution scheme's per-node active counts
// over the isovalue sweep, skipping isovalues where nothing is active.
func sweepImbalance(scheme string, counts func(iso float32) []int) DistributionRow {
	row := DistributionRow{Scheme: scheme}
	sum, n := 0.0, 0
	for _, iso := range Sweep() {
		c := counts(iso)
		if slices.Max(c) == 0 {
			continue
		}
		im := spanspace.Imbalance(c)
		if im > row.WorstMaxAvg {
			row.WorstMaxAvg, row.WorstIso = im, iso
		}
		sum += im
		n++
	}
	if n > 0 {
		row.MeanMaxAvg = sum / float64(n)
	}
	return row
}

// ---------------------------------------------------------------------------
// Ablation C — bulk brick reads vs per-metacell reads.

// BulkReadRow compares the I/O of the two layouts at one isovalue.
type BulkReadRow struct {
	Iso        float32       `col:"isovalue,%.0f"`
	Active     int           `col:"active MC"`
	CITBlocks  int64         `col:"CIT blocks"`
	CITSeeks   int64         `col:"CIT seeks"`
	CITModel   time.Duration `col:"CIT time"`
	BBIOBlocks int64         `col:"BBIO blocks"`
	BBIOSeeks  int64         `col:"BBIO seeks"`
	BBIOModel  time.Duration `col:"BBIO time"`
}

// AblationBulkRead queries the same metacell set through the CIT brick
// layout and the BBIO spatial layout, comparing blocks, seeks and modeled
// disk time.
func AblationBulkRead(cfg RMConfig) ([]BulkReadRow, error) {
	g := Volume(cfg)
	l, cells := metacell.Extract(g, cfg.span())
	model := blockio.DefaultDiskModel()

	wC := blockio.NewWriter()
	cit, err := core.Plan(cells).Materialize(l, cells, wC)
	if err != nil {
		return nil, err
	}
	devC := blockio.NewStore(wC.Bytes(), blockio.DefaultBlockSize)

	wB := blockio.NewWriter()
	bb, err := bbio.Build(l, cells, wB)
	if err != nil {
		return nil, err
	}
	devB := blockio.NewStore(wB.Bytes(), blockio.DefaultBlockSize)

	var rows []BulkReadRow
	for _, iso := range Sweep() {
		devC.ResetStats()
		devB.ResetStats()
		stC, err := cit.Query(devC, iso, func([]byte) error { return nil })
		if err != nil {
			return nil, err
		}
		if _, err := bb.Query(devB, iso, func([]byte) error { return nil }); err != nil {
			return nil, err
		}
		ioC, ioB := devC.Stats(), devB.Stats()
		rows = append(rows, BulkReadRow{
			Iso:        iso,
			Active:     stC.ActiveMetacells,
			CITBlocks:  ioC.BlocksRead,
			CITSeeks:   ioC.Seeks,
			CITModel:   model.Time(ioC),
			BBIOBlocks: ioB.BlocksRead,
			BBIOSeeks:  ioB.Seeks,
			BBIOModel:  model.Time(ioB),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Ablation D — metacell size: span 5 vs 9 vs 17.

// MetacellSizeRow summarizes one span choice.
type MetacellSizeRow struct {
	Span        int   `col:"span,%d³"`
	RecordBytes int   `col:"record,%d B"`
	Metacells   int   `col:"metacells"`
	DataBytes   int64 `col:"data,bytes"`
	IndexBytes  int64 `col:"index,bytes"`
	Active      int   `col:"active MC"`   // active metacells at the reference isovalue
	ReadBlocks  int64 `col:"blocks read"` // blocks read at the reference isovalue
	Triangles   int   `col:"triangles"`
}

// AblationMetacellSize rebuilds the pipeline with different metacell spans
// and measures index size, data size and query I/O at a reference isovalue.
func AblationMetacellSize(cfg RMConfig, iso float32, spans []int) ([]MetacellSizeRow, error) {
	g := Volume(cfg)
	var rows []MetacellSizeRow
	for _, span := range spans {
		l, cells := metacell.Extract(g, span)
		w := blockio.NewWriter()
		cit, err := core.Plan(cells).Materialize(l, cells, w)
		if err != nil {
			return nil, err
		}
		dev := blockio.NewStore(w.Bytes(), blockio.DefaultBlockSize)
		var welder march.Welder
		var mesh geom.IndexedMesh
		st, err := cit.Query(dev, iso, func(rec []byte) error {
			_, err := welder.Record(l, rec, iso, &mesh)
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, MetacellSizeRow{
			Span:        span,
			RecordBytes: l.RecordSize(),
			Metacells:   len(cells),
			DataBytes:   w.Offset(),
			IndexBytes:  cit.IndexSizeBytes(),
			Active:      st.ActiveMetacells,
			ReadBlocks:  dev.Stats().BlocksRead,
			Triangles:   mesh.Len(),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Ablation E — host dispatch vs independent per-node queries.

// DispatchRow compares the two execution models for one worker count.
type DispatchRow struct {
	Workers     int           `col:"workers"`
	HostBound   time.Duration `col:"host-dispatch (BBIO)"` // makespan
	Independent time.Duration `col:"independent (paper)"`  // our per-node independent extraction (modeled)
}

// AblationHostDispatch models the BBIO host-dispatch makespan against the
// measured independent per-node times of our engine at the reference
// isovalue, for several worker counts.
func AblationHostDispatch(ctx context.Context, cfg RMConfig, iso float32, workerCounts []int) ([]DispatchRow, error) {
	var rows []DispatchRow
	for _, procs := range workerCounts {
		eng, err := Engine(cfg, procs)
		if err != nil {
			return nil, err
		}
		res, err := eng.Extract(ctx, iso, cluster.Options{})
		if err != nil {
			return nil, err
		}
		// Host model: same number of jobs, 50 µs coordination per job
		// (network round trip + bookkeeping), job duration from our measured
		// mean per-metacell processing time.
		var totalBusy time.Duration
		for _, n := range res.PerNode {
			totalBusy += n.IOModelTime + n.TriWall
		}
		perJob := time.Duration(0)
		if res.Active > 0 {
			perJob = totalBusy / time.Duration(res.Active)
		}
		model := bbio.DispatchModel{Workers: procs, PerJob: 50 * time.Microsecond, JobDuration: perJob}
		rows = append(rows, DispatchRow{
			Workers:     procs,
			HostBound:   model.Makespan(res.Active),
			Independent: res.MaxNodeTime(),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Ablation F — query acceleration structures: CIT vs octree vs span-space
// lattice vs standard interval tree, compared on index size and query work.

// QueryStructureRow summarizes one structure at the reference isovalue.
type QueryStructureRow struct {
	Structure string        `col:"structure"`
	SizeBytes int64         `col:"index size,bytes"`
	Active    int           `col:"active MC"`        // active metacells reported
	Visited   int           `col:"elements visited"` // structure elements examined during the query
	QueryWall time.Duration `col:"query time"`       // in-memory query time (no data I/O)
}

// AblationQueryStructures compares the in-memory query behavior of the four
// acceleration structures on the standard workload. Only the CIT also
// optimizes the *disk layout*; this ablation isolates the search side.
func AblationQueryStructures(cfg RMConfig, iso float32) ([]QueryStructureRow, error) {
	g := Volume(cfg)
	l, cells := metacell.Extract(g, cfg.span())

	// Compact interval tree (query against its in-memory data image).
	w := blockio.NewWriter()
	cit, err := core.Plan(cells).Materialize(l, cells, w)
	if err != nil {
		return nil, err
	}
	dev := blockio.NewStore(w.Bytes(), blockio.DefaultBlockSize)
	t0 := time.Now()
	stC, err := cit.Query(dev, iso, func([]byte) error { return nil })
	if err != nil {
		return nil, err
	}
	citRow := QueryStructureRow{
		Structure: "compact interval tree",
		SizeBytes: cit.IndexSizeBytes(),
		Active:    stC.ActiveMetacells,
		Visited:   stC.NodesVisited + stC.BrickScans + stC.BricksSkipped,
		QueryWall: time.Since(t0),
	}

	// Min-max octree.
	oct := octree.Build(g, cfg.span())
	t0 = time.Now()
	n := 0
	stO := oct.Query(iso, func(uint32) { n++ })
	octRow := QueryStructureRow{
		Structure: "min-max octree (BONO)",
		SizeBytes: oct.SizeBytes(),
		Active:    n,
		Visited:   stO.NodesVisited,
		QueryWall: time.Since(t0),
	}

	// ISSUE span-space lattice.
	lat := spanspace.NewLattice(cells, 32)
	t0 = time.Now()
	stL := lat.Query(iso, func(uint32) {})
	latRow := QueryStructureRow{
		Structure: "span-space lattice (ISSUE)",
		SizeBytes: lat.SizeBytes(l.Fmt.Bytes()),
		Active:    stL.Active,
		Visited:   stL.BulkBuckets + stL.CheckedCells + stL.EmptyBuckets,
		QueryWall: time.Since(t0),
	}

	// Standard interval tree.
	ivs := make([]intervaltree.Interval, len(cells))
	for i, c := range cells {
		ivs[i] = intervaltree.Interval{VMin: c.VMin, VMax: c.VMax, ID: c.ID}
	}
	it := intervaltree.Build(l.Fmt, ivs)
	t0 = time.Now()
	m := 0
	it.Stab(iso, func(intervaltree.Interval) { m++ })
	itRow := QueryStructureRow{
		Structure: "standard interval tree",
		SizeBytes: it.SizeBytes(),
		Active:    m,
		Visited:   m + it.Height() + 1,
		QueryWall: time.Since(t0),
	}
	return []QueryStructureRow{citRow, octRow, latRow, itRow}, nil
}
