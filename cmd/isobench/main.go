// Command isobench regenerates the paper's evaluation tables and figures
// from the command line: flag parsing plus a loop over the harness experiment
// registry (the root BenchmarkExperiments is the same loop under go test).
//
// Examples:
//
//	isobench -experiment all
//	isobench -experiment table2 -size small
//	isobench -experiment fig4 -out fig4.ppm
//	isobench -experiment ablations
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"

	"repro/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("isobench: ")
	var (
		exp   = flag.String("experiment", "all", harness.ExperimentUsage())
		size  = flag.String("size", "full", "full (256×256×240, the paper's down-sampled size) or small (96×96×90)")
		out   = flag.String("out", "figure4.ppm", "output image path for fig4")
		cache = flag.Int("cache", 0, "LRU cache blocks per node disk (0 = cold-cache paper model); warms isovalue sweeps")

		chaosStrict = flag.Bool("chaos-strict", false, "exit non-zero if any resilient chaos row fails a request or serves wrong bytes (CI gate)")
	)
	flag.Parse()

	// Ctrl-C cancels the in-flight extraction sweep instead of killing the
	// process mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := harness.DefaultRM()
	if *size == "small" {
		cfg = harness.Small()
	}
	cfg.CacheBlocks = *cache

	exps := harness.SelectExperiments(harness.Experiments(*out), *exp)
	if len(exps) == 0 {
		log.Fatalf("unknown experiment %q", *exp)
	}
	for _, e := range exps {
		v, err := e.Report(ctx, cfg, os.Stdout)
		if err != nil {
			log.Fatal(err)
		}
		if *chaosStrict && e.Name == "chaos" && v > 0 {
			log.Fatalf("chaos-strict: resilient router failed or mis-served %.0f requests (rows above)", v)
		}
	}
}
