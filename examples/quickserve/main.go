// Quickserve: stand the query service in front of a preprocessed engine and
// watch what it does for concurrent clients — coalescing identical in-flight
// requests into one extraction, answering repeats from the mesh cache, and
// shedding load past the admission limits.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro"
)

func main() {
	log.SetFlags(0)

	// 1. Preprocess one RM time step onto 4 simulated nodes, as in
	// examples/quickstart.
	fmt.Println("preprocessing onto 4 simulated nodes…")
	eng, err := repro.Preprocess(repro.GenerateRM(128, 128, 120, 250, 42), repro.Config{Procs: 4})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Wrap it in a query server: up to 2 extractions in flight and a
	// 64 MiB mesh cache. Isovalues are rounded to integers, so requests for
	// 189.7 and 190.2 are the same surface.
	srv := repro.NewServer(eng, repro.ServeConfig{
		MaxInFlight: 2,
		CacheBytes:  64 << 20,
	})

	// 3. Eight clients ask for (almost) the same isovalue at once. The
	// server runs ONE extraction; everyone shares its mesh.
	fmt.Println("8 concurrent clients, one isovalue…")
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			iso := 190 + float32(k)*0.05 // all round to the same isovalue
			r, err := srv.Query(context.Background(), 0, iso)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  client %d: iso %.2f → %7d triangles via %-9s in %v\n",
				k, iso, r.Result.Triangles, r.Source, r.Wall.Round(time.Microsecond))
		}(k)
	}
	wg.Wait()

	// 4. A repeat visit is a pure cache hit — no disk I/O, no triangulation.
	r, err := srv.Query(context.Background(), 0, 190)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat visit: %d triangles via %s in %v\n",
		r.Result.Triangles, r.Source, r.Wall.Round(time.Microsecond))

	// 5. The counters tell the story: many requests, one extraction.
	st := srv.Stats()
	fmt.Printf("\nserver stats: %d requests = %d extraction + %d coalesced + %d cache hits (hit rate %.0f%%)\n",
		st.Requests, st.Extractions, st.Coalesced, st.CacheHits, 100*st.HitRate())
	fmt.Printf("mesh cache: %d surface(s), %.1f MB resident\n",
		st.CachedMeshes, float64(st.CachedBytes)/(1<<20))
}
