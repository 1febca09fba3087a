package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestFloatRanges(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := New(99)
	const buckets, n = 10, 100000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[int(r.Float64()*buckets)]++
	}
	for i, c := range counts {
		// Expect 10000 ± 5%; splitmix64 is far better than this bound.
		if c < 9500 || c > 10500 {
			t.Errorf("bucket %d has %d samples, want ~%d", i, c, n/buckets)
		}
	}
}

func TestIntn(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestHash3Deterministic(t *testing.T) {
	if Hash3(1, 2, 3, 42) != Hash3(1, 2, 3, 42) {
		t.Error("Hash3 not deterministic")
	}
	if Hash3(1, 2, 3, 42) == Hash3(1, 2, 3, 43) {
		t.Error("Hash3 ignores seed")
	}
	if Hash3(1, 2, 3, 42) == Hash3(3, 2, 1, 42) {
		t.Error("Hash3 symmetric in coordinates")
	}
}

func TestHash3FloatRange(t *testing.T) {
	f := func(x, y, z int32, seed uint64) bool {
		v := Hash3Float(x, y, z, seed)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHash3Avalanche(t *testing.T) {
	// Neighboring lattice points should produce effectively independent
	// values; verify the mean of many neighbors is near 0.5.
	var sum float64
	const n = 10000
	for i := int32(0); i < n; i++ {
		sum += float64(Hash3Float(i, i+1, -i, 5))
	}
	mean := sum / n
	if mean < 0.48 || mean > 0.52 {
		t.Errorf("neighbor-hash mean = %v, want ≈0.5", mean)
	}
}
