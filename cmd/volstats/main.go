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
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/metacell"
	"repro/internal/obs"
	"repro/internal/spanspace"
	"repro/internal/volume"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("volstats: ")
	var (
		in      = flag.String("in", "", "volume file in this repository's format")
		raw     = flag.String("raw", "", "headerless raw volume file")
		rawDims = flag.String("rawdims", "", "raw dimensions, e.g. 256x256x256")
		rawFmt  = flag.String("rawfmt", "u8", "raw scalar format: u8|u16|f32")
		nx      = flag.Int("nx", 128, "synthetic volume X samples")
		ny      = flag.Int("ny", 128, "synthetic volume Y samples")
		nz      = flag.Int("nz", 120, "synthetic volume Z samples")
		step    = flag.Int("step", 250, "synthetic RM time step")
		seed    = flag.Uint64("seed", 42, "synthetic generator seed")
		span    = flag.Int("span", 9, "metacell span")
	)
	flag.Parse()

	g, err := loadVolume(*in, *raw, *rawDims, *rawFmt, *nx, *ny, *nz, *step, *seed)
	if err != nil {
		log.Fatal(err)
	}

	lo, hi := g.MinMax()
	fmt.Printf("volume: %d×%d×%d %s, %d samples (%s)\n",
		g.Nx, g.Ny, g.Nz, g.Fmt, g.Samples(), obs.FormatBytes(g.SizeBytes()))
	fmt.Printf("values: range [%g, %g], %d distinct\n", lo, hi, g.DistinctValues())

	// Value histogram (16 buckets, ASCII bars).
	fmt.Println("\nvalue histogram:")
	hist := make([]int, 16)
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				v := g.At(x, y, z)
				b := int(float32(len(hist)) * (v - lo) / (hi - lo + 1e-6))
				if b >= len(hist) {
					b = len(hist) - 1
				}
				hist[b]++
			}
		}
	}
	maxCount := 0
	for _, c := range hist {
		if c > maxCount {
			maxCount = c
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for b, c := range hist {
		blo := lo + (hi-lo)*float32(b)/float32(len(hist))
		bhi := lo + (hi-lo)*float32(b+1)/float32(len(hist))
		bar := strings.Repeat("#", c*50/max(maxCount, 1))
		fmt.Fprintf(tw, "  [%7.1f,%7.1f)\t%9d\t%s\n", blo, bhi, c, bar)
	}
	tw.Flush()

	// Metacell decomposition.
	l, cells := metacell.Extract(g, *span)
	fmt.Printf("\nmetacells (span %d, %d B records): %d total, %d kept, %d constant dropped (%.1f%% saved)\n",
		*span, l.RecordSize(), l.Count(), len(cells), l.Count()-len(cells),
		100*float64(l.Count()-len(cells))/float64(max(l.Count(), 1)))

	// Span-space occupancy.
	h := spanspace.Histogram(cells, 8)
	fmt.Println("\nspan-space occupancy (vmin bins ↓, vmax bins →):")
	for i := 0; i < h.Bins; i++ {
		fmt.Print("  ")
		for j := 0; j < h.Bins; j++ {
			switch {
			case j < i:
				fmt.Print("      ")
			case h.Count[i][j] == 0:
				fmt.Print("     .")
			default:
				fmt.Printf("%6d", h.Count[i][j])
			}
		}
		fmt.Println()
	}

	// Compact interval tree geometry.
	cit, err := core.Plan(cells).Materialize(l, cells, blockio.NewWriter())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompact interval tree: %d nodes, %d bricks, height %d, %s index for %s of bricks\n",
		len(cit.Nodes), cit.NumEntries(), cit.Height(), obs.FormatBytes(cit.IndexSizeBytes()),
		obs.FormatBytes(int64(len(cells))*int64(l.RecordSize())))
}

func loadVolume(in, raw, rawDims, rawFmt string, nx, ny, nz, step int, seed uint64) (*volume.Grid, error) {
	switch {
	case in != "":
		return volume.ReadFile(in)
	case raw != "":
		var dx, dy, dz int
		if _, err := fmt.Sscanf(rawDims, "%dx%dx%d", &dx, &dy, &dz); err != nil {
			return nil, fmt.Errorf("bad -rawdims %q (want NXxNYxNZ): %v", rawDims, err)
		}
		var f volume.Format
		switch rawFmt {
		case "u8":
			f = volume.U8
		case "u16":
			f = volume.U16
		case "f32":
			f = volume.F32
		default:
			return nil, fmt.Errorf("bad -rawfmt %q", rawFmt)
		}
		return volume.ReadRaw(raw, dx, dy, dz, f)
	default:
		return volume.RichtmyerMeshkov(nx, ny, nz, step, seed), nil
	}
}
