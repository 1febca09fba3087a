// Command isoquery extracts one isosurface from a dataset preprocessed by
// cmd/preprocess and reports the paper's per-node metrics: active metacells,
// triangles, block I/O, modeled disk time, and triangulation time.
//
// Example:
//
//	isoquery -data /tmp/rm250 -iso 190
//	isoquery -data /tmp/rm250 -iso 190 -trace   # + per-stage waterfall
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/meshio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("isoquery: ")
	var (
		data  = flag.String("data", "", "preprocessed dataset directory (required)")
		iso   = flag.Float64("iso", 190, "isovalue to extract")
		mesh  = flag.String("mesh", "", "optional mesh output path (.obj/.stl/.ply)")
		trace = flag.Bool("trace", false, "print the extraction's per-stage waterfall")
	)
	flag.Parse()
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	eng, err := cluster.Open(*data)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	res, err := eng.Extract(ctx, float32(*iso), cluster.Options{KeepMeshes: *mesh != "", Trace: *trace})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("isovalue %.1f on %d nodes: %d active metacells, %d triangles (wall %v)\n",
		*iso, eng.Procs, res.Active, res.Triangles, res.Wall.Round(time.Millisecond))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "node\tactive MC\ttriangles\tblocks read\tseeks\tI/O (model)\tAMC (wall)\ttriangulate")
	for _, n := range res.PerNode {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%v\t%v\t%v\n",
			n.Node, n.ActiveMetacells, n.Triangles,
			n.IOStats.BlocksRead, n.IOStats.Seeks,
			n.IOModelTime.Round(time.Microsecond),
			n.AMCWall.Round(time.Microsecond),
			n.TriWall.Round(time.Microsecond))
	}
	tw.Flush()

	if res.Trace != nil {
		fmt.Printf("\nstage waterfall (wall %v):\n%s", res.Trace.Wall.Round(time.Microsecond), res.Trace)
	}

	if *mesh != "" {
		var soup geom.Mesh
		for _, n := range res.PerNode {
			soup.Append(n.Mesh.Tris...)
		}
		im := meshio.Index(&soup)
		if err := im.WriteFile(*mesh); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d vertices, %d faces)\n", *mesh, im.NumVerts(), im.NumFaces())
	}
}
