package harness

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/bbio"
	"repro/internal/blockio"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/intervaltree"
	"repro/internal/march"
	"repro/internal/metacell"
	"repro/internal/obs"
	"repro/internal/octree"
	"repro/internal/spanspace"
)

// countTriangles triangulates one decoded metacell and returns its triangle
// count (the mesh itself is discarded).
func countTriangles(l metacell.Layout, m *metacell.Meta, iso float32) int {
	var mesh geom.Mesh
	march.Metacell(l, m, iso, &mesh)
	return mesh.Len()
}

// ---------------------------------------------------------------------------
// Ablation A — index structures: CIT vs standard interval tree vs BBIO.

// IndexAblationRow compares index structures on the standard RM workload.
type IndexAblationRow struct {
	Structure string
	Entries   int
	SizeBytes int64
	Height    int
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

// PrintIndexAblation renders the index comparison.
func PrintIndexAblation(w io.Writer, rows []IndexAblationRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "structure\tentries\tsize\theight")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\n", r.Structure, r.Entries, obs.FormatBytes(r.SizeBytes), r.Height)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Ablation B — data distribution: brick striping vs range partition vs
// block round-robin, judged by worst-case imbalance over the sweep.

// DistributionRow summarizes one distribution scheme.
type DistributionRow struct {
	Scheme      string
	WorstMaxAvg float64 // worst max/avg over the isovalue sweep
	MeanMaxAvg  float64
	WorstIso    float32
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
	rp := spanspace.NewRangePartition(cells, procs)
	rowRange := DistributionRow{Scheme: "range partition [21]"}
	sum = 0
	count := 0
	for _, iso := range Sweep() {
		counts := rp.Distribution(iso)
		total := 0
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			continue
		}
		im := spanspace.Imbalance(counts)
		if im > rowRange.WorstMaxAvg {
			rowRange.WorstMaxAvg, rowRange.WorstIso = im, iso
		}
		sum += im
		count++
	}
	if count > 0 {
		rowRange.MeanMaxAvg = sum / float64(count)
	}

	// Scheme 3: spatial block round-robin (metacell ID modulo p), a naive
	// but common distribution.
	rowRR := DistributionRow{Scheme: "spatial round-robin"}
	sum = 0
	count = 0
	for _, iso := range Sweep() {
		counts := make([]int, procs)
		total := 0
		for _, c := range cells {
			if c.VMin <= iso && iso <= c.VMax {
				counts[int(c.ID)%procs]++
				total++
			}
		}
		if total == 0 {
			continue
		}
		im := spanspace.Imbalance(counts)
		if im > rowRR.WorstMaxAvg {
			rowRR.WorstMaxAvg, rowRR.WorstIso = im, iso
		}
		sum += im
		count++
	}
	if count > 0 {
		rowRR.MeanMaxAvg = sum / float64(count)
	}
	return []DistributionRow{rowStripe, rowRange, rowRR}, nil
}

// PrintDistributionAblation renders the distribution comparison.
func PrintDistributionAblation(w io.Writer, procs int, rows []DistributionRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "scheme\tworst max/avg\tmean max/avg\tworst isovalue\t[p=%d]\n", procs)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.0f\t\n", r.Scheme, r.WorstMaxAvg, r.MeanMaxAvg, r.WorstIso)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Ablation C — bulk brick reads vs per-metacell reads.

// BulkReadRow compares the I/O of the two layouts at one isovalue.
type BulkReadRow struct {
	Iso        float32
	Active     int
	CITBlocks  int64
	CITSeeks   int64
	CITModel   time.Duration
	BBIOBlocks int64
	BBIOSeeks  int64
	BBIOModel  time.Duration
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

// PrintBulkReadAblation renders the layout comparison.
func PrintBulkReadAblation(w io.Writer, rows []BulkReadRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "isovalue\tactive MC\tCIT blocks\tCIT seeks\tCIT time\tBBIO blocks\tBBIO seeks\tBBIO time")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f\t%d\t%d\t%d\t%s\t%d\t%d\t%s\n",
			r.Iso, r.Active, r.CITBlocks, r.CITSeeks, fmtDur(r.CITModel),
			r.BBIOBlocks, r.BBIOSeeks, fmtDur(r.BBIOModel))
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Ablation D — metacell size: span 5 vs 9 vs 17.

// MetacellSizeRow summarizes one span choice.
type MetacellSizeRow struct {
	Span        int
	RecordBytes int
	Metacells   int
	DataBytes   int64
	IndexBytes  int64
	Active      int   // active metacells at the reference isovalue
	ReadBlocks  int64 // blocks read at the reference isovalue
	Triangles   int
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
		tris := 0
		var m metacell.Meta
		st, err := cit.Query(dev, iso, func(rec []byte) error {
			if err := metacell.DecodeRecordInto(l, rec, &m); err != nil {
				return err
			}
			tris += countTriangles(l, &m, iso)
			return nil
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
			Triangles:   tris,
		})
	}
	return rows, nil
}

// PrintMetacellSizeAblation renders the span comparison.
func PrintMetacellSizeAblation(w io.Writer, iso float32, rows []MetacellSizeRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "span\trecord\tmetacells\tdata\tindex\tactive MC\tblocks read\ttriangles\t[iso=%.0f]\n", iso)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d³\t%d B\t%d\t%s\t%s\t%d\t%d\t%d\t\n",
			r.Span, r.RecordBytes, r.Metacells, obs.FormatBytes(r.DataBytes), obs.FormatBytes(r.IndexBytes),
			r.Active, r.ReadBlocks, r.Triangles)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Ablation E — host dispatch vs independent per-node queries.

// DispatchRow compares the two execution models for one worker count.
type DispatchRow struct {
	Workers     int
	HostBound   time.Duration // BBIO host-dispatch makespan
	Independent time.Duration // our per-node independent extraction (modeled)
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

// PrintDispatchAblation renders the execution-model comparison.
func PrintDispatchAblation(w io.Writer, iso float32, rows []DispatchRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workers\thost-dispatch (BBIO)\tindependent (paper)\t[iso=%.0f]\n", iso)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t\n", r.Workers, fmtDur(r.HostBound), fmtDur(r.Independent))
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Ablation F — query acceleration structures: CIT vs octree vs span-space
// lattice vs standard interval tree, compared on index size and query work.

// QueryStructureRow summarizes one structure at the reference isovalue.
type QueryStructureRow struct {
	Structure string
	SizeBytes int64
	Active    int           // active metacells reported
	Visited   int           // structure elements examined during the query
	QueryWall time.Duration // in-memory query time (no data I/O)
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

// PrintQueryStructuresAblation renders the structure comparison.
func PrintQueryStructuresAblation(w io.Writer, iso float32, rows []QueryStructureRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "structure\tindex size\tactive MC\telements visited\tquery time\t[iso=%.0f]\n", iso)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t\n", r.Structure, obs.FormatBytes(r.SizeBytes), r.Active, r.Visited, fmtDur(r.QueryWall))
	}
	tw.Flush()
}
