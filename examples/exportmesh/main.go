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

	// Weld the per-node triangle soup into an indexed mesh and export.
	soup, err := repro.MergeMeshes(res)
	if err != nil {
		log.Fatal(err)
	}
	im := repro.IndexMesh(soup)
	fmt.Printf("isosurface: %d triangles → %d welded vertices, %d faces\n",
		soup.Len(), im.NumVerts(), im.NumFaces())
	for _, name := range []string{"isosurface.obj", "isosurface.stl", "isosurface.ply"} {
		if err := im.WriteFile(name); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", name)
	}
}
