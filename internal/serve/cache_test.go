package serve

import (
	"context"
	"math/rand"
	"testing"
)

// TestCachePolicyReplay drives meshCache alone with the repository
// benchmark's routed mix restated as literals: the eleven surfaces of the
// paper's sweep by soup payload size (the charge before the cache held
// chunks; the literals pin the policy, not the representation), asked for in Zipf(1.1) proportion — 50-request
// decks, each shuffled — against the 96 MiB a routed_churn replica has for a
// 348 MB working set. An LRU reads 0.42 here. Then the popularity order is
// reversed: the policy has to let go of what it learned within a few hundred
// requests (with an unbounded hit count it stays at 0.08 for 3 000).
func TestCachePolicyReplay(t *testing.T) {
	payloadMB := []float64{31.6, 28.2, 28.9, 30.3, 41.4, 60.1, 41.9, 23.8, 21.5, 20.7, 19.9}
	deckCounts := []int{18, 9, 5, 4, 3, 3, 2, 2, 2, 1, 1}
	const budget = 96 << 20

	// The cache reads nothing of a surface but its charge.
	surfaces := make([]*surface, len(payloadMB))
	for k, mb := range payloadMB {
		surfaces[k] = &surface{bytes: int64(mb * 1e6)}
	}

	c := newMeshCache(budget)
	rnd := rand.New(rand.NewSource(19))
	// replay runs n requests of the mix and returns the hit ratio over
	// requests [from, n).
	replay := func(counts []int, from, n int) float64 {
		var deck []int
		for k, cnt := range counts {
			for ; cnt > 0; cnt-- {
				deck = append(deck, k)
			}
		}
		hits := 0
		for i := 0; i < n; i++ {
			if i%len(deck) == 0 {
				rnd.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
			}
			k := deck[i%len(deck)]
			key := Key{Bucket: int64(k)}
			if _, ok := c.get(key); ok {
				if i >= from {
					hits++
				}
				continue
			}
			c.put(key, surfaces[k])
			if _, used := c.size(); used > budget {
				t.Fatalf("request %d: %d bytes cached against a budget of %d", i, used, budget)
			}
		}
		return float64(hits) / float64(n-from)
	}

	if got := replay(deckCounts, 0, 4000); got < 0.55 {
		t.Errorf("hit ratio %.3f over 4000 requests of the benchmark's mix, want ≥ 0.55", got)
	}
	reversed := make([]int, len(deckCounts))
	for k, cnt := range deckCounts {
		reversed[len(reversed)-1-k] = cnt
	}
	if got := replay(reversed, 250, 750); got < 0.60 {
		t.Errorf("hit ratio %.3f over requests 250–750 after the popularity order reversed, want ≥ 0.60", got)
	}
}

// TestEmptySurfacesAreNotFree sweeps isovalues outside the data range: every
// one is a distinct key with an empty surface, and each must still be charged
// something, or the cache grows by one entry per request for ever.
func TestEmptySurfacesAreNotFree(t *testing.T) {
	cfg := Config{CacheBytes: 100 * entryOverhead}
	s := New(&fakeBackend{tris: 0}, cfg)
	for i := 0; i < 10000; i++ {
		if _, err := s.Query(context.Background(), 0, float32(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CachedBytes > cfg.CacheBytes || int64(st.CachedMeshes) > cfg.CacheBytes/entryOverhead {
		t.Fatalf("10000 empty surfaces left %d meshes / %d bytes cached; budget %d bytes, %d per entry",
			st.CachedMeshes, st.CachedBytes, cfg.CacheBytes, entryOverhead)
	}
	if st.CachedMeshes == 0 || st.Evictions == 0 {
		t.Fatalf("%d meshes cached, %d evictions: the sweep never filled the cache", st.CachedMeshes, st.Evictions)
	}
}
