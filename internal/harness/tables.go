package harness

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/intervaltree"
	"repro/internal/metacell"
	"repro/internal/render"
	"repro/internal/volume"
)

// ---------------------------------------------------------------------------
// Table 1 — index structure sizes: compact interval tree vs standard
// interval tree, over stand-ins for the paper's datasets.

// Table1Row compares the two index structures on one dataset.
type Table1Row struct {
	Name      string  `col:"dataset"`
	Dims      string  `col:"dims"`
	Format    string  `col:"fmt"`
	Metacells int     `col:"N metacells"` // intervals indexed
	Endpoints int     `col:"n endpoints"` // distinct endpoint values
	CITBytes  int64   `col:"compact IT,bytes"`
	StdBytes  int64   `col:"standard IT,bytes"`
	Ratio     float64 `col:"std/compact,%.1f×"`
}

// Table1 builds both index structures for synthetic stand-ins of the
// paper's Table 1 datasets (Bunny, MRBrain, CTHead, Pressure, Velocity; see
// DESIGN.md §2) and reports their sizes. n controls the stand-in grid edge.
func Table1(n int, seed uint64) ([]Table1Row, error) {
	sets := []struct {
		name string
		grid *volume.Grid
	}{
		{"Bunny", volume.BunnyLike(n, seed)},
		{"MRBrain", volume.MRBrainLike(n, seed)},
		{"CTHead", volume.CTHeadLike(n, seed)},
		{"Pressure", volume.PressureLike(n, seed)},
		{"Velocity", volume.VelocityLike(n, seed)},
		{"RM step 250", volume.RichtmyerMeshkov(n, n, n, 250, seed)},
	}
	var rows []Table1Row
	for _, s := range sets {
		l, cells := metacell.Extract(s.grid, metacell.DefaultSpan)
		w := nullWriter()
		cit, err := core.Plan(cells).Materialize(l, cells, w)
		if err != nil {
			return nil, fmt.Errorf("harness: table 1 %s: %w", s.name, err)
		}
		ivs := make([]intervaltree.Interval, len(cells))
		endpoints := map[float32]struct{}{}
		for i, c := range cells {
			ivs[i] = intervaltree.Interval{VMin: c.VMin, VMax: c.VMax, ID: c.ID}
			endpoints[c.VMin] = struct{}{}
			endpoints[c.VMax] = struct{}{}
		}
		it := intervaltree.Build(s.grid.Fmt, ivs)
		row := Table1Row{
			Name:      s.name,
			Dims:      fmt.Sprintf("%d³", n),
			Format:    s.grid.Fmt.String(),
			Metacells: len(cells),
			Endpoints: len(endpoints),
			CITBytes:  cit.IndexSizeBytes(),
			StdBytes:  it.SizeBytes(),
		}
		if row.CITBytes > 0 {
			row.Ratio = float64(row.StdBytes) / float64(row.CITBytes)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Tables 2–5 — extraction + rendering performance on 1, 2, 4 and 8 nodes
// over the isovalue sweep.

// PerfRow is one isovalue's row of a performance table: the paper's metrics
// (triangle count, AMC retrieval time, triangulation time, rendering time,
// overall rate), where times are the slowest node's.
type PerfRow struct {
	Iso       float32 `col:"isovalue,%.0f"`
	Active    int     `col:"active MC"`
	Triangles int     `col:"triangles"`

	AMCModel time.Duration `col:"AMC I/O (model)"` // slowest node's modeled disk time for retrieval
	AMCWall  time.Duration `col:"AMC (wall)"`      // slowest node's measured retrieval wall time
	TriWall  time.Duration `col:"triangulate"`     // slowest node's triangulation wall time
	RendWall time.Duration `col:"render"`          // slowest node's local rendering wall time

	Overall time.Duration `col:"overall"`     // max-node (AMCModel+TriWall+RendWall) + composite
	Rate    float64       `col:"Mtri/s,%.2f"` // Triangles/Overall
}

// PerfOptions tunes the performance tables.
type PerfOptions struct {
	FrameW, FrameH int  // rendering resolution; 0 = 512×512
	SkipRender     bool // measure extraction only
}

// PerfTable runs the isovalue sweep on the given node count, producing one
// row per isovalue. This regenerates Table 2 (procs=1), Table 3 (2),
// Table 4 (4) and Table 5 (8).
func PerfTable(ctx context.Context, cfg RMConfig, procs int, opt PerfOptions) ([]PerfRow, error) {
	if opt.FrameW == 0 {
		opt.FrameW = 512
	}
	if opt.FrameH == 0 {
		opt.FrameH = 512
	}
	eng, err := Engine(cfg, procs)
	if err != nil {
		return nil, err
	}
	var rows []PerfRow
	for _, iso := range Sweep() {
		res, err := eng.Extract(ctx, iso, cluster.Options{KeepMeshes: !opt.SkipRender})
		if err != nil {
			return nil, err
		}
		row := PerfRow{Iso: iso, Active: res.Active, Triangles: res.Triangles}
		// Each node renders its own mesh (one goroutine per node, like the
		// per-node GPUs); the framebuffers are then composited sort-last.
		rendWall := make([]time.Duration, len(res.PerNode))
		var compositeWall time.Duration
		if !opt.SkipRender {
			meshes, err := res.Meshes()
			if err != nil {
				return nil, err
			}
			var fbs []*render.Framebuffer
			fbs, rendWall = render.DrawNodes(meshes, render.FitNodes(meshes, opt.FrameW, opt.FrameH))
			t0 := time.Now()
			if _, _, err := composite.ZComposite(fbs...); err != nil {
				return nil, err
			}
			compositeWall = time.Since(t0)
		}
		for i, n := range res.PerNode {
			row.AMCModel = max(row.AMCModel, n.IOModelTime)
			row.AMCWall = max(row.AMCWall, n.AMCWall)
			row.TriWall = max(row.TriWall, n.TriWall)
			row.RendWall = max(row.RendWall, rendWall[i])
			row.Overall = max(row.Overall, n.IOModelTime+n.TriWall+rendWall[i]+compositeWall)
		}
		row.Rate = mtps(row.Triangles, row.Overall)
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Tables 6 & 7 — distribution of active metacells / triangles across four
// nodes per isovalue.

// BalanceRow is one isovalue's distribution across nodes.
type BalanceRow struct {
	Iso     float32 `col:"isovalue,%.0f"`
	PerNode []int   `col:"node %d"`
	Total   int     `col:"total"`
	MaxAvg  float64 `col:"max/avg,%.3f"` // 1.0 is perfect balance
}

// BalanceTable computes the per-node distribution of active metacells
// (metric="metacells", Table 6) or triangles (metric="triangles", Table 7).
func BalanceTable(ctx context.Context, cfg RMConfig, procs int, metric string) ([]BalanceRow, error) {
	eng, err := Engine(cfg, procs)
	if err != nil {
		return nil, err
	}
	var rows []BalanceRow
	for _, iso := range Sweep() {
		res, err := eng.Extract(ctx, iso, cluster.Options{})
		if err != nil {
			return nil, err
		}
		row := BalanceRow{Iso: iso, PerNode: make([]int, procs)}
		for i, n := range res.PerNode {
			switch metric {
			case "metacells":
				row.PerNode[i] = n.ActiveMetacells
			case "triangles":
				row.PerNode[i] = n.Triangles
			default:
				return nil, fmt.Errorf("harness: unknown balance metric %q", metric)
			}
			row.Total += row.PerNode[i]
		}
		row.MaxAvg = 1
		if row.Total > 0 {
			row.MaxAvg = float64(slices.Max(row.PerNode)) * float64(procs) / float64(row.Total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 8 — time-varying browsing: steps 180–195 at isovalue 70 on four
// nodes.

// Table8Row is one time step's row.
type Table8Row struct {
	Step      int           `col:"time step"`
	Active    int           `col:"active MC"`
	Triangles int           `col:"triangles"`
	Time      time.Duration `col:"time"` // max-node modeled time, as in the perf tables
	Rate      float64       `col:"Mtri/s,%.2f"`
}

// Table8 preprocesses the given steps (paper: 180–195) and extracts the
// fixed isovalue (paper: 70) on a procs-node configuration (paper: 4).
func Table8(ctx context.Context, cfg RMConfig, steps []int, iso float32, procs int) ([]Table8Row, *core.TimeVaryingIndex, error) {
	gen := volume.TimeVaryingRM(cfg.NX, cfg.NY, cfg.NZ, cfg.Seed)
	tv, err := cluster.BuildTimeVarying(gen, steps, cluster.Config{Procs: procs, Span: cfg.Span})
	if err != nil {
		return nil, nil, err
	}
	var rows []Table8Row
	for _, s := range steps {
		res, err := tv.Extract(ctx, s, iso, cluster.Options{})
		if err != nil {
			return nil, nil, err
		}
		row := Table8Row{Step: s, Active: res.Active, Triangles: res.Triangles}
		row.Time = res.MaxNodeTime()
		row.Rate = mtps(row.Triangles, row.Time)
		rows = append(rows, row)
	}
	return rows, &tv.Index, nil
}

// nullWriter returns a Writer whose output is discarded after offsets are
// assigned (Table 1 only needs index sizes, not the data image).
func nullWriter() *nullW { return &nullW{} }

type nullW struct{ off int64 }

func (w *nullW) Offset() int64 { return w.off }
func (w *nullW) Append(p []byte) (int64, error) {
	off := w.off
	w.off += int64(len(p))
	return off, nil
}
