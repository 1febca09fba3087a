// Command volstats analyzes a scalar volume the way the preprocessing
// pipeline sees it: the value histogram, the metacell decomposition, the
// constant-metacell fraction, the span-space occupancy, and the resulting
// compact-interval-tree geometry. Useful for choosing isovalues and
// predicting preprocessing savings before committing to a full run.
//
// Example:
//
//	volstats -nx 256 -ny 256 -nz 240 -step 250
//	volstats -in data.vol
//	volstats -raw bunny.raw -rawdims 512x512x361 -rawfmt u8
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"slices"
	"strings"
	"text/tabwriter"

	"repro/internal/blockio"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/metacell"
	"repro/internal/obs"
	"repro/internal/spanspace"
	"repro/internal/volume"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("volstats: ")
	src := cli.Volume(cli.Span)
	var (
		raw     = flag.String("raw", "", "headerless raw volume file (instead of -in or the synthetic volume)")
		rawDims = flag.String("rawdims", "", "raw dimensions, e.g. 256x256x256")
		rawFmt  = flag.String("rawfmt", "u8", "raw scalar format: u8|u16|f32")
	)
	flag.Parse()

	g, err := loadVolume(src, *raw, *rawDims, *rawFmt)
	if err != nil {
		log.Fatal(err)
	}

	if err := report(os.Stdout, g, src.Span); err != nil {
		log.Fatal(err)
	}
}

// report prints the analysis of g, decomposed into metacells of the given
// span.
func report(w io.Writer, g *volume.Grid, span int) error {
	lo, hi := g.MinMax()
	fmt.Fprintf(w, "volume: %d×%d×%d %s, %d samples (%s)\n",
		g.Nx, g.Ny, g.Nz, g.Fmt, g.Samples(), obs.FormatBytes(g.SizeBytes()))
	fmt.Fprintf(w, "values: range [%g, %g], %d distinct\n", lo, hi, g.DistinctValues())

	// Value histogram (16 buckets, ASCII bars).
	fmt.Fprintln(w, "\nvalue histogram:")
	h := valueHistogram(g, 16)
	fmt.Fprintf(w, "  non-finite samples (NaN, ±Inf): %d\n", h.nonFinite)
	if h.nonFinite < g.Samples() {
		maxCount := slices.Max(h.counts)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for b, c := range h.counts {
			blo := h.lo + (h.hi-h.lo)*float64(b)/float64(len(h.counts))
			bhi := h.lo + (h.hi-h.lo)*float64(b+1)/float64(len(h.counts))
			bar := strings.Repeat("#", c*50/max(maxCount, 1))
			fmt.Fprintf(tw, "  [%7.1f,%7.1f)\t%9d\t%s\n", blo, bhi, c, bar)
		}
		tw.Flush()
	}

	// Metacell decomposition.
	l, cells := metacell.Extract(g, span)
	fmt.Fprintf(w, "\nmetacells (span %d, %d B records): %d total, %d kept, %d constant dropped (%.1f%% saved)\n",
		span, l.RecordSize(), l.Count(), len(cells), l.Count()-len(cells),
		100*float64(l.Count()-len(cells))/float64(max(l.Count(), 1)))

	// Span-space occupancy.
	occ := spanspace.Histogram(cells, 8)
	fmt.Fprintln(w, "\nspan-space occupancy (vmin bins ↓, vmax bins →):")
	for i := 0; i < occ.Bins; i++ {
		fmt.Fprint(w, "  ")
		for j := 0; j < occ.Bins; j++ {
			switch {
			case j < i:
				fmt.Fprint(w, "      ")
			case occ.Count[i][j] == 0:
				fmt.Fprint(w, "     .")
			default:
				fmt.Fprintf(w, "%6d", occ.Count[i][j])
			}
		}
		fmt.Fprintln(w)
	}

	// Compact interval tree geometry.
	cit, err := core.Plan(cells).Materialize(l, cells, blockio.NewWriter())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ncompact interval tree: %d nodes, %d bricks, height %d, %s index for %s of bricks\n",
		len(cit.Nodes), cit.NumEntries(), cit.Height(), obs.FormatBytes(cit.IndexSizeBytes()),
		obs.FormatBytes(int64(len(cells))*int64(l.RecordSize())))
	return nil
}

// histogram is the value histogram: the finite samples in equal buckets over
// [lo, hi], their own range, and the samples no bucket holds — NaN and ±Inf —
// counted apart.
type histogram struct {
	lo, hi    float64
	counts    []int
	nonFinite int
}

// valueHistogram buckets g's samples in float64, where neither the range of
// ±MaxFloat32 nor a sample's offset in it overflows, and clamps every bucket
// into [0, buckets-1].
func valueHistogram(g *volume.Grid, buckets int) histogram {
	h := histogram{lo: math.Inf(1), hi: math.Inf(-1), counts: make([]int, buckets)}
	finite := func(visit func(v float64)) {
		for z := 0; z < g.Nz; z++ {
			for y := 0; y < g.Ny; y++ {
				for x := 0; x < g.Nx; x++ {
					if v := float64(g.At(x, y, z)); !math.IsNaN(v) && !math.IsInf(v, 0) {
						visit(v)
					}
				}
			}
		}
	}
	n := 0
	finite(func(v float64) { h.lo, h.hi, n = min(h.lo, v), max(h.hi, v), n+1 })
	h.nonFinite = g.Samples() - n
	finite(func(v float64) {
		b := 0
		if h.hi > h.lo {
			b = int(float64(buckets) * (v - h.lo) / (h.hi - h.lo))
		}
		h.counts[min(max(b, 0), buckets-1)]++
	})
	return h
}

// loadVolume reads the headerless -raw file, or the volume src names.
func loadVolume(src *cli.Source, raw, rawDims, rawFmt string) (*volume.Grid, error) {
	if raw == "" {
		return src.Grid()
	}
	var dx, dy, dz int
	if _, err := fmt.Sscanf(rawDims, "%dx%dx%d", &dx, &dy, &dz); err != nil {
		return nil, fmt.Errorf("bad -rawdims %q (want NXxNYxNZ): %v", rawDims, err)
	}
	for _, f := range []volume.Format{volume.U8, volume.U16, volume.F32} {
		if f.String() == rawFmt {
			return volume.ReadRaw(raw, dx, dy, dz, f)
		}
	}
	return nil, fmt.Errorf("bad -rawfmt %q", rawFmt)
}
