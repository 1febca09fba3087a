package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/composite"
	"repro/internal/render"
)

// ---------------------------------------------------------------------------
// Figures 5 & 6 — overall time and speedup versus isovalue for 1..8 nodes.

// ScalingPoint is one (isovalue, node count) measurement.
type ScalingPoint struct {
	Iso     float32
	Procs   int
	Overall time.Duration
	Speedup float64 // overall(1) / overall(p)
}

// ScalingSeries runs the isovalue sweep for every node count and returns the
// points of Figure 5 (Overall) and Figure 6 (Speedup). The overall time is
// the slowest node's modeled I/O + measured triangulation + measured
// rendering, plus the composite, as in the performance tables.
func ScalingSeries(ctx context.Context, cfg RMConfig, procsList []int, opt PerfOptions) ([]ScalingPoint, error) {
	var points []ScalingPoint
	base := map[float32]time.Duration{} // p=1 overall per isovalue
	for _, procs := range procsList {
		rows, err := PerfTable(ctx, cfg, procs, opt)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			pt := ScalingPoint{Iso: r.Iso, Procs: procs, Overall: r.Overall}
			if procs == 1 {
				base[r.Iso] = r.Overall
			}
			if b, ok := base[r.Iso]; ok && r.Overall > 0 {
				pt.Speedup = float64(b) / float64(r.Overall)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// writeScaling writes Figure 5 or 6 as a table pivoted on the node count:
// one row per isovalue, one column per entry of procsList, cell(p) in each.
// It keeps its own loop beside WriteTable: its columns are node counts, data
// rather than fields, so no tag can name them.
func writeScaling(w io.Writer, procsList []int, points []ScalingPoint, what string, cell func(ScalingPoint) string) {
	byKey := map[[2]int]ScalingPoint{}
	isoSet := map[float32]bool{}
	for _, p := range points {
		byKey[[2]int{int(p.Iso), p.Procs}] = p
		isoSet[p.Iso] = true
	}
	tw := newTable(w)
	fmt.Fprintf(tw, "isovalue\t")
	for _, procs := range procsList {
		fmt.Fprintf(tw, "p=%d\t", procs)
	}
	fmt.Fprintf(tw, "[%s]\n", what)
	for _, iso := range Sweep() {
		if !isoSet[iso] {
			continue
		}
		fmt.Fprintf(tw, "%.0f\t", iso)
		for _, procs := range procsList {
			if p, ok := byKey[[2]int{int(iso), procs}]; ok {
				fmt.Fprintf(tw, "%s\t", cell(p))
			} else {
				fmt.Fprintf(tw, "-\t")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Figure 4 — the rendered isosurface image.

// Figure4Result summarizes the rendered image.
type Figure4Result struct {
	Triangles     int
	CoveredPixels int
	Tiles         []composite.Tile
	Wall          *render.Framebuffer
}

// Figure4 runs the full pipeline — extract at the paper's isovalue 190,
// render per node, sort-last composite onto a 2×2 wall — and optionally
// writes the assembled image as a PPM file.
func Figure4(ctx context.Context, cfg RMConfig, iso float32, procs, w, h int, outPath string) (*Figure4Result, error) {
	eng, err := Engine(cfg, procs)
	if err != nil {
		return nil, err
	}
	res, err := eng.Extract(ctx, iso, cluster.Options{KeepMeshes: true})
	if err != nil {
		return nil, err
	}
	meshes, err := res.Meshes()
	if err != nil {
		return nil, err
	}
	// Per-node colors visualize the striped distribution.
	fbs, _ := render.DrawNodes(meshes, w, h, true)
	tiles, _, err := composite.SortLast(fbs, 2, 2)
	if err != nil {
		return nil, err
	}
	wall, err := composite.Assemble(tiles, 2, 2)
	if err != nil {
		return nil, err
	}
	if outPath != "" {
		if err := wall.WritePPMFile(outPath); err != nil {
			return nil, err
		}
	}
	return &Figure4Result{
		Triangles:     res.Triangles,
		CoveredPixels: wall.CoveredPixels(),
		Tiles:         tiles,
		Wall:          wall,
	}, nil
}
