package blockio

import (
	"errors"
	"testing"
	"time"
)

func faultStore(blocks int) *Store {
	return NewStore(make([]byte, blocks*8), 8)
}

func TestFaultDeviceProbabilistic(t *testing.T) {
	// Two identically seeded devices must fail the same reads; a different
	// seed must not reproduce the pattern (with overwhelming probability
	// over 4096 draws at p=0.25).
	pattern := func(seed uint64) []bool {
		d := &FaultDevice{Inner: faultStore(1), FailProb: 0.25, Seed: seed}
		out := make([]bool, 4096)
		buf := make([]byte, 8)
		for i := range out {
			out[i] = errors.Is(d.ReadAt(buf, 0), ErrInjected)
		}
		return out
	}
	a, b, c := pattern(11), pattern(11), pattern(12)
	fails, diff := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d: same seed diverged", i)
		}
		if a[i] {
			fails++
		}
		if a[i] != c[i] {
			diff++
		}
	}
	if fails < 4096/8 || fails > 4096/2 {
		t.Fatalf("%d/4096 failures at p=0.25 — selection is broken", fails)
	}
	if diff == 0 {
		t.Fatal("different seeds produced the identical failure pattern")
	}
}

func TestFaultDeviceTransientVsPersistent(t *testing.T) {
	buf := make([]byte, 8)
	// Transient (default): FailEvery selects call numbers, not offsets, so
	// retrying the same offset right after a failure succeeds.
	tr := &FaultDevice{Inner: faultStore(1), FailEvery: 2}
	if err := tr.ReadAt(buf, 0); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if err := tr.ReadAt(buf, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("second read should fail: %v", err)
	}
	if err := tr.ReadAt(buf, 0); err != nil {
		t.Fatalf("transient fault did not clear on retry: %v", err)
	}

	// Persistent: the offset that failed stays failed; other offsets are
	// still governed by selection alone.
	pe := &FaultDevice{Inner: faultStore(2), FailEvery: 2, Persistent: true}
	if err := pe.ReadAt(buf, 0); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if err := pe.ReadAt(buf, 8); !errors.Is(err, ErrInjected) {
		t.Fatal("second read should fail")
	}
	for i := 0; i < 3; i++ {
		if err := pe.ReadAt(buf, 8); !errors.Is(err, ErrInjected) {
			t.Fatalf("persistent fault cleared on retry %d: %v", i, err)
		}
	}
}

func TestFaultDeviceLatency(t *testing.T) {
	d := &FaultDevice{Inner: faultStore(1), Latency: 20 * time.Millisecond}
	buf := make([]byte, 8)
	start := time.Now()
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("read returned in %v, injected latency is 20ms", el)
	}
}
