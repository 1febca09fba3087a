// Exportmesh: extract an isosurface and write it as standard mesh files
// (OBJ, binary STL, PLY) for use in external tools — the typical downstream
// consumption of an isosurface library.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	log.SetFlags(0)

	vol := repro.GenerateRM(96, 96, 90, 250, 42)
	eng, err := repro.Preprocess(vol, repro.Config{Procs: 2})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Extract(context.Background(), 110, repro.Options{KeepMeshes: true})
	if err != nil {
		log.Fatal(err)
	}

	// Weld the per-node triangle soups into one indexed mesh and export.
	meshes, err := res.Meshes()
	if err != nil {
		log.Fatal(err)
	}
	im := repro.IndexMesh(meshes...)
	fmt.Printf("isosurface: %d triangles → %d welded vertices, %d faces\n",
		res.Triangles, im.NumVerts(), im.Len())
	for _, name := range []string{"isosurface.obj", "isosurface.stl", "isosurface.ply"} {
		if err := repro.WriteMesh(name, im); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", name)
	}
}
