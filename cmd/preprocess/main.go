// Command preprocess builds a striped, indexed out-of-core dataset from a
// scalar volume: it extracts 9×9×9 metacells, drops constant ones, plans the
// compact interval tree, stripes every brick across the node-local disk
// files, and saves the per-node indexes plus a manifest. The output
// directory can then be queried with cmd/isoquery or cmd/renderiso.
//
// Input is either a volume file written in this repository's format (-in) or
// the built-in synthetic Richtmyer–Meshkov generator (default).
//
// Example:
//
//	preprocess -out /tmp/rm250 -procs 4 -nx 256 -ny 256 -nz 240 -step 250
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/volume"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("preprocess: ")
	var (
		in    = flag.String("in", "", "input volume file (empty: generate synthetic RM data)")
		out   = flag.String("out", "", "output dataset directory (required)")
		procs = flag.Int("procs", 4, "number of cluster nodes / local disks")
		span  = flag.Int("span", 9, "metacell edge length in samples")
		nx    = flag.Int("nx", 256, "synthetic volume X samples")
		ny    = flag.Int("ny", 256, "synthetic volume Y samples")
		nz    = flag.Int("nz", 240, "synthetic volume Z samples")
		step  = flag.Int("step", 250, "synthetic RM time step (0..269)")
		seed  = flag.Uint64("seed", 42, "synthetic generator seed")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	cfg := cluster.Config{Procs: *procs, Span: *span, Dir: *out}
	var eng *cluster.Engine
	var err error
	t0 := time.Now()
	t1 := t0
	if *in != "" {
		// Stream the file one z-slab at a time: the raw volume never needs
		// to fit in memory.
		log.Printf("streaming %s…", *in)
		eng, err = cluster.BuildFromVolumeFile(*in, cfg)
	} else {
		g := volume.RichtmyerMeshkov(*nx, *ny, *nz, *step, *seed)
		log.Printf("generated RM step %d: %d×%d×%d (%s) in %v", *step, g.Nx, g.Ny, g.Nz, obs.FormatBytes(g.SizeBytes()), time.Since(t0).Round(time.Millisecond))
		t1 = time.Now()
		eng, err = cluster.Build(g, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Save(*out); err != nil {
		log.Fatal(err)
	}

	kept, dropped := eng.TotalMetacells, eng.DroppedMetacells
	fmt.Printf("preprocessed in %v\n", time.Since(t1).Round(time.Millisecond))
	fmt.Printf("  metacells: %d kept, %d constant dropped (%.0f%% saved)\n",
		kept, dropped, 100*float64(dropped)/float64(kept+dropped))
	fmt.Printf("  brick data: %s across %d node disks\n", obs.FormatBytes(eng.DataBytes), *procs)
	var idx int64
	for i := 0; i < *procs; i++ {
		idx += eng.Tree(i).IndexSizeBytes()
	}
	fmt.Printf("  index: %s total (resident in memory at query time)\n", obs.FormatBytes(idx))
	fmt.Printf("  dataset saved to %s\n", *out)
}
