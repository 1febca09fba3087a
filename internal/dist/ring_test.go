package dist

import (
	"fmt"
	"testing"
)

func TestRingOrderCoversAllReplicasOnce(t *testing.T) {
	rg := newRing(5)
	for step := 0; step < 3; step++ {
		for bucket := int64(0); bucket < 200; bucket++ {
			order := rg.order(keyHash(step, bucket), nil)
			if len(order) != 5 {
				t.Fatalf("key (%d,%d): order %v does not cover the ring", step, bucket, order)
			}
			seen := map[int]bool{}
			for _, r := range order {
				if r < 0 || r >= 5 || seen[r] {
					t.Fatalf("key (%d,%d): bad order %v", step, bucket, order)
				}
				seen[r] = true
			}
		}
	}
}

// TestRingSpreadsKeys: every replica's cache is worth as much as its share of
// the keys, so the share must be near 1/n at every tier size — and on the
// paper's eleven-isovalue sweep, which the repository benchmark routes over
// two replicas, neither replica may sit idle.
func TestRingSpreadsKeys(t *testing.T) {
	const steps, buckets = 4, 1024
	for _, n := range []int{2, 3, 4, 5, 8, 16} {
		rg := newRing(n)
		counts := make([]int, n)
		for step := 0; step < steps; step++ {
			for bucket := int64(0); bucket < buckets; bucket++ {
				counts[rg.order(keyHash(step, bucket), nil)[0]]++
			}
		}
		fair := float64(steps*buckets) / float64(n)
		for r, c := range counts {
			if share := float64(c) / fair; share < 0.7 || share > 1.3 {
				t.Errorf("n=%d: replica %d owns %d keys, %.2f of a fair share (want 0.7–1.3): %v", n, r, c, share, counts)
			}
		}
	}

	rg := newRing(2)
	var sweep [2]int
	for bucket := int64(10); bucket <= 210; bucket += 20 {
		sweep[rg.order(keyHash(0, bucket), nil)[0]]++
	}
	if sweep[0] == 0 || sweep[0] > 8 || sweep[1] == 0 || sweep[1] > 8 {
		t.Errorf("the sweep's 11 isovalues split %v over 2 replicas, want neither idle nor above 8", sweep)
	}
}

func TestRingIsDeterministic(t *testing.T) {
	a, b := newRing(3), newRing(3)
	for bucket := int64(0); bucket < 100; bucket++ {
		ao, bo := a.order(keyHash(1, bucket), nil), b.order(keyHash(1, bucket), nil)
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("bucket %d: ring order differs between identical rings", bucket)
			}
		}
	}
}

// Removing the last replica must move only the keys it owned: every other
// shard keeps its key range (and therefore its warmed mesh cache).
func TestRingStableUnderReplicaRemoval(t *testing.T) {
	big, small := newRing(4), newRing(3)
	moved, kept := 0, 0
	for bucket := int64(0); bucket < 2048; bucket++ {
		h := keyHash(0, bucket)
		was := big.order(h, nil)[0]
		now := small.order(h, nil)[0]
		if was == 3 {
			moved++
			continue // this key's owner left; it must land somewhere else
		}
		if was != now {
			t.Fatalf("bucket %d: owner %d changed to %d though replica 3 left", bucket, was, now)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate split: %d moved, %d kept", moved, kept)
	}
}

// TestCandidatesOneHealthSnapshot hammers candidates while a replica's health
// flips under it, as concurrent requests and cooldown expiry do in production.
// Every list must hold each of the request's Attempts replicas exactly once:
// a replica read as down by one look and up by another would be listed twice
// or — on a one-replica tier, failing the request with no attempt — not at all.
func TestCandidatesOneHealthSnapshot(t *testing.T) {
	for _, n := range []int{1, 3} {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("replica-%d.invalid:1", i)
		}
		rt, err := NewRouter(RouterConfig{Replicas: addrs})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		flipped := make(chan struct{})
		go func() {
			defer close(flipped)
			for {
				select {
				case <-stop:
					return
				default:
					rt.health.markDown(n - 1)
					rt.health.revive(n - 1)
				}
			}
		}()
		for i := 0; i < 200000; i++ {
			cands := rt.candidates(0, float32(i%64))
			seen := make([]bool, n)
			for _, ri := range cands {
				if seen[ri] {
					t.Fatalf("%d replicas: candidates %v lists replica %d twice", n, cands, ri)
				}
				seen[ri] = true
			}
			if len(cands) != n {
				t.Fatalf("%d replicas: candidates %v, want all %d", n, cands, n)
			}
		}
		close(stop)
		<-flipped
		rt.Close()
	}
}

// TestRingMappingPinned holds the key → replica mapping still: the ring
// order of every key in steps 0–2 × buckets −8..63 at 1, 2, 3 and 8 replicas,
// folded into one digest. A changed digest means warmed caches would be
// reshuffled on upgrade.
func TestRingMappingPinned(t *testing.T) {
	const want = 0xb5b4fbed650835a1
	h := uint64(14695981039346656037)
	for _, n := range []int{1, 2, 3, 8} {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("replica-%d.invalid:1", i)
		}
		rt, err := NewRouter(RouterConfig{Replicas: addrs})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			for bucket := -8; bucket <= 63; bucket++ {
				for _, ri := range rt.Candidates(step, float32(bucket)) {
					h = (h ^ uint64(ri)) * 1099511628211
				}
				h = (h ^ 0xff) * 1099511628211
			}
		}
		rt.Close()
	}
	if h != want {
		t.Errorf("ring mapping digest %#x, want %#x", h, uint64(want))
	}
}
