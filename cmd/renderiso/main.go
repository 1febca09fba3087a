// Command renderiso runs the full pipeline and writes a rendered isosurface
// image (the paper's Figure 4): extract at an isovalue, render per node,
// sort-last composite onto a 2×2 tiled wall, and save the assembled PPM
// (plus, optionally, the four per-projector tiles).
//
// It works either from a preprocessed dataset directory (-data) or by
// generating the synthetic RM volume in memory.
//
// Example:
//
//	renderiso -iso 190 -o isosurface.ppm -tiles
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/composite"
	"repro/internal/render"
	"repro/internal/volume"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("renderiso: ")
	var (
		data  = flag.String("data", "", "preprocessed dataset directory (empty: generate RM in memory)")
		iso   = flag.Float64("iso", 190, "isovalue")
		procs = flag.Int("procs", 4, "cluster nodes (in-memory mode)")
		nx    = flag.Int("nx", 256, "synthetic volume X samples")
		ny    = flag.Int("ny", 256, "synthetic volume Y samples")
		nz    = flag.Int("nz", 240, "synthetic volume Z samples")
		step  = flag.Int("step", 250, "synthetic RM time step")
		seed  = flag.Uint64("seed", 42, "generator seed")
		w     = flag.Int("w", 1024, "image width (must divide by 2 for tiling)")
		h     = flag.Int("h", 768, "image height (must divide by 2 for tiling)")
		out   = flag.String("o", "isosurface.ppm", "output PPM path")
		tiles = flag.Bool("tiles", false, "also write the four per-projector tile images")
		byNod = flag.Bool("color-by-node", true, "color triangles by owning node")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var eng *cluster.Engine
	var err error
	if *data != "" {
		eng, err = cluster.Open(*data)
	} else {
		g := volume.RichtmyerMeshkov(*nx, *ny, *nz, *step, *seed)
		eng, err = cluster.Build(g, cluster.Config{Procs: *procs})
	}
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	res, err := eng.Extract(ctx, float32(*iso), cluster.Options{KeepMeshes: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted %d triangles on %d nodes in %v\n", res.Triangles, eng.Procs, res.Wall.Round(time.Millisecond))

	meshes, err := res.Meshes()
	if err != nil {
		log.Fatal(err)
	}
	t1 := time.Now()
	fbs, _ := render.DrawNodes(meshes, *w, *h, *byNod)
	tls, st, err := composite.SortLast(fbs, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	wall, err := composite.Assemble(tls, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rendered + composited in %v (%d sources, %.1f MB shuffled)\n",
		time.Since(t1).Round(time.Millisecond), st.Sources, float64(st.BytesMoved)/1e6)

	if err := wall.WritePPMFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d×%d)\n", *out, wall.W, wall.H)
	if *tiles {
		base := strings.TrimSuffix(*out, ".ppm")
		for _, t := range tls {
			path := fmt.Sprintf("%s-tile-%d-%d.ppm", base, t.X, t.Y)
			if err := t.FB.WritePPMFile(path); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}
