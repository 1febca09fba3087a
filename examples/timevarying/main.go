// Timevarying: browse a time-varying dataset at a fixed isovalue (the
// paper's §7.2 workload, Table 8). One compact interval tree per step keeps
// the whole index in memory; each step's bricks are striped across the
// nodes' disks.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	log.SetFlags(0)

	// Index 8 time steps of the evolving instability on a 4-node cluster.
	steps := []int{180, 182, 184, 186, 188, 190, 192, 194}
	fmt.Printf("preprocessing %d time steps…\n", len(steps))
	gen := repro.TimeVaryingRM(96, 96, 90, 42)
	tv, err := repro.PreprocessTimeVarying(gen, steps, repro.Config{Procs: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("time-varying index: %d steps, %d bytes total — resident in memory\n",
		len(tv.Steps), tv.IndexSizeBytes())

	// Sweep the time axis at the paper's isovalue 70, as a user exploring
	// the simulation would.
	const iso = 70
	fmt.Printf("\n%-6s %12s %12s %12s\n", "step", "active MC", "triangles", "time")
	for _, s := range steps {
		t0 := time.Now()
		res, err := tv.ExtractStep(context.Background(), s, iso, repro.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %12d %12d %12v\n", s, res.Active, res.Triangles, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Println("\nthe mixing layer grows over time: active metacells and triangles rise with the step number")
}
