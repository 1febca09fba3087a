// Command preprocess builds a striped, indexed out-of-core dataset from a
// scalar volume: it extracts 9×9×9 metacells, drops constant ones, plans the
// compact interval tree, stripes every brick across the node-local disk
// files, and saves the per-node indexes plus a manifest. The output
// directory can then be queried and rendered with cmd/isoquery -data.
//
// Input is either a volume file written in this repository's format (-in),
// streamed one z-slab at a time so it never needs to fit in memory, or the
// built-in synthetic Richtmyer–Meshkov generator (default).
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

	"repro/internal/cli"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("preprocess: ")
	src := cli.Volume(cli.Procs | cli.Span)
	out := flag.String("out", "", "output dataset directory (required)")
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	t0 := time.Now()
	eng, err := src.Build(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Save(*out); err != nil {
		log.Fatal(err)
	}

	kept, dropped := eng.TotalMetacells, eng.DroppedMetacells
	fmt.Printf("preprocessed in %v\n", time.Since(t0).Round(time.Millisecond))
	fmt.Printf("  metacells: %d kept, %d constant dropped (%.0f%% saved)\n",
		kept, dropped, 100*float64(dropped)/float64(kept+dropped))
	fmt.Printf("  brick data: %s across %d node disks\n", obs.FormatBytes(eng.DataBytes), eng.Procs)
	var idx int64
	for i := 0; i < eng.Procs; i++ {
		idx += eng.Tree(i).IndexSizeBytes()
	}
	fmt.Printf("  index: %s total (resident in memory at query time)\n", obs.FormatBytes(idx))
	fmt.Printf("  dataset saved to %s\n", *out)
}
