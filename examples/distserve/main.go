// Distserve: stand up the sharded serving tier — three replica servers on
// loopback sockets behind a consistent-hashing router — and watch how it
// routes: every isovalue has a home shard whose mesh cache stays hot on it,
// repeats hit that cache, and draining a replica moves its keys to ring
// neighbors without a failed request.
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

	// 1. Preprocess one RM time step onto 4 simulated nodes, as in
	// examples/quickstart. All replicas share this backend — they are
	// separate serving processes in spirit, one engine in fact.
	fmt.Println("preprocessing onto 4 simulated nodes…")
	eng, err := repro.Preprocess(repro.GenerateRM(128, 128, 120, 250, 42), repro.Config{Procs: 4})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Spawn the tier: three replicas on loopback listeners, each with its
	// own coalescing server and mesh cache, and a router that consistent-
	// hashes (step, rounded iso) across them.
	cl, err := repro.StartDistCluster(eng, repro.DistConfig{
		Replicas: 3,
		Replica: repro.ReplicaConfig{
			Serve: repro.ServeConfig{MaxInFlight: 2, CacheBytes: 64 << 20},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	for i, rep := range cl.Replicas {
		fmt.Printf("  replica %d listening on http://%s\n", i, rep.Addr())
	}

	ctx := context.Background()

	// 3. Nine isovalues, twice each. The first pass extracts on each key's
	// home shard; the second pass hits that shard's cache — over real TCP.
	fmt.Println("\nfirst pass (cold), then second pass (cached):")
	for pass := 1; pass <= 2; pass++ {
		for i := 0; i < 9; i++ {
			iso := 100 + float32(i)*10
			resp, err := cl.Router.Query(ctx, 0, iso)
			if err != nil {
				log.Fatal(err)
			}
			if pass == 2 || i < 3 { // keep the output short
				fmt.Printf("  pass %d: iso %3.0f → %7d triangles from replica %d (%s)\n",
					pass, iso, resp.Mesh.Len(), resp.Route.Replica, resp.Route.Source)
			}
		}
	}

	// 4. Drain replica 0: it finishes its in-flight responses and closes its
	// listener. The first request that tries it fails to connect, marks it
	// down and fails over within the same request; its keys land on ring
	// successors — who extract once, then serve their newly warmed caches.
	fmt.Println("\ndraining replica 0…")
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := cl.Replicas[0].Drain(dctx); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		iso := 100 + float32(i)*10
		resp, err := cl.Router.Query(ctx, 0, iso)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  iso %3.0f → replica %d (%s)\n", iso, resp.Route.Replica, resp.Route.Source)
	}

	// 5. The tier's accounting: who served what, and how the router moved.
	fmt.Println()
	st := cl.Router.Stats()
	fmt.Printf("router: %d routed, %d failovers, down=%v\n", st.Routed, st.Failovers, st.Down)
	for i, s := range cl.Stats() {
		fmt.Printf("replica %d: %d requests, %d extractions, hit rate %.0f%%\n",
			i, s.Requests, s.Extractions, 100*s.HitRate())
	}
}
