// Command isoquery extracts isosurfaces from a dataset preprocessed by
// cmd/preprocess (-data), or from a volume file (-in) or the synthetic
// Richtmyer–Meshkov generator preprocessed in memory, and does the jobs of
// the paper's interactive loop (§5.2) and tiled wall (Figure 4) with them:
//
//   - report each extraction's per-node metrics (-trace adds the waterfall);
//   - write the merged surface (-mesh: .obj, .stl or .ply);
//   - render: z-composite the per-node renders, coloured by node, into one
//     image (-o: .png, else PPM), and -tiles its 2×2 wall tiles;
//   - animate: -step FROM:TO[:STRIDE] sweeps the synthetic time steps at one
//     isovalue and one camera. -o and -mesh then hold one integer verb, which
//     numbers the steps from 0.
//
// Examples:
//
//	isoquery -data /tmp/rm250 -iso 190 -trace
//	isoquery -data /tmp/rm250 -iso 190 -mesh rm.obj -o isosurface.ppm -tiles
//	isoquery -step 180:200 -iso 70 -o frame-%03d.png
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/composite"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/render"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("isoquery: ")
	src := cli.Volume(cli.Range | cli.Data | cli.Procs)
	var (
		iso   = flag.Float64("iso", 190, "isovalue to extract")
		trace = flag.Bool("trace", false, "print each extraction's per-stage waterfall")
		mesh  = flag.String("mesh", "", "mesh output path (.obj/.stl/.ply); with a -step range, a pattern such as s-%03d.obj")
		out   = flag.String("o", "", "image output path (.png, else PPM); with a -step range, a pattern such as frame-%03d.png")
		tiles = flag.Bool("tiles", false, "with -o, also write the image's four 2×2 wall tiles")
		w     = flag.Int("w", 1024, "image width (even with -tiles)")
		h     = flag.Int("h", 768, "image height (even with -tiles)")
	)
	flag.Parse()
	if *tiles && *out == "" {
		log.Fatal("-tiles splits the -o image: it needs -o")
	}
	for _, p := range []string{*mesh, *out} {
		if src.Ranged && p != "" {
			if err := framePattern(p); err != nil {
				log.Fatal(err)
			}
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	extract, err := src.Extractor()
	if err != nil {
		log.Fatal(err)
	}

	var cam *render.Camera // fitted on the first step and kept, so a sweep's frames line up
	for i, step := range src.Steps {
		res, err := extract(ctx, step, float32(*iso), cluster.Options{KeepMeshes: *mesh != "" || *out != "", Trace: *trace})
		if err != nil {
			log.Fatal(err)
		}
		meshPath, outPath := *mesh, *out
		if src.Ranged { // each non-empty pattern holds one integer verb (framePattern)
			meshPath, outPath = fmt.Sprintf(meshPath, i), fmt.Sprintf(outPath, i)
			fmt.Printf("step %d: ", step)
		}
		report(res)
		meshes, _ := res.Meshes() // kept whenever they are written
		if *mesh != "" {
			err = writeMesh(meshes, meshPath)
		}
		if *out != "" && err == nil {
			if cam == nil {
				cam = render.FitNodes(meshes, *w, *h)
			}
			err = writeImage(meshes, cam, outPath, *tiles)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
}

// report prints an extraction's totals, per-node table and, when traced,
// stage waterfall.
func report(res *cluster.Result) {
	fmt.Printf("isovalue %.1f on %d nodes: %d active metacells, %d triangles (wall %v)\n",
		res.Iso, len(res.PerNode), res.Active, res.Triangles, res.Wall.Round(time.Millisecond))
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
}

// writeMesh writes the per-node meshes as one indexed mesh.
func writeMesh(meshes []*geom.Mesh, path string) error {
	var soup geom.Mesh
	for _, m := range meshes {
		soup.Append(m.Tris...)
	}
	im := meshio.Index(&soup)
	fmt.Printf("writing %s (%d vertices, %d faces)\n", path, im.NumVerts(), im.NumFaces())
	return im.WriteFile(path)
}

// writeImage renders each node's mesh through cam and writes their
// z-composite to path and, with tiles, its 2×2 wall tiles beside it.
func writeImage(meshes []*geom.Mesh, cam *render.Camera, path string, tiles bool) error {
	fbs, _ := render.DrawNodes(meshes, cam)
	img, _, err := composite.ZComposite(fbs...)
	if err != nil {
		return err
	}
	fmt.Printf("writing %s (%d×%d)\n", path, img.W, img.H)
	if err := img.WriteImageFile(path); err != nil || !tiles {
		return err
	}
	wall, err := composite.SplitTiles(img, 2, 2)
	if err != nil {
		return err
	}
	ext := filepath.Ext(path)
	for _, t := range wall {
		if err := t.FB.WriteImageFile(fmt.Sprintf("%s-tile-%d-%d%s", strings.TrimSuffix(path, ext), t.X, t.Y, ext)); err != nil {
			return err
		}
	}
	return nil
}

// framePattern checks that a -step range's output pattern holds exactly one
// integer verb (%d, %03d, %x …), so that each step writes its own file.
func framePattern(p string) error {
	if strings.Contains(fmt.Sprintf(p, 0), "%!") {
		return fmt.Errorf("%q: a -step range's output pattern needs exactly one integer verb, such as %%03d", p)
	}
	return nil
}
