package blockio

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// ErrInjected is the sentinel returned by a FaultDevice when it fires.
var ErrInjected = errors.New("blockio: injected I/O fault")

// FaultDevice wraps a Device with configurable fault injection, for
// exercising the error paths of the query and cluster engines in tests. Two
// selection modes compose:
//
//   - FailEvery: every Nth read fails — the deterministic mode, exact and
//     schedule-independent.
//   - FailProb: each read fails with this probability, drawn from a
//     SplitMix64 stream seeded with Seed — the statistical mode, matching
//     how real media fail.
//
// A selected failure is transient by default (the same offset succeeds when
// retried); Persistent remembers the offset and fails it forever after — a
// bad sector rather than a bus glitch. Latency is added to every read,
// failed or not, modeling a degraded device that answers slowly before it
// answers wrongly.
type FaultDevice struct {
	Inner Device
	// FailEvery makes every FailEvery-th read return ErrInjected
	// (1 = every read). Zero disables the deterministic mode.
	FailEvery int64
	// FailProb makes each read fail with this probability in [0, 1],
	// independently of FailEvery. Zero disables the probabilistic mode.
	FailProb float64
	// Latency is added to every read (0 = none).
	Latency time.Duration
	// Persistent remembers each failed offset and keeps failing it — the
	// retry that would have recovered a transient fault hits the same error.
	Persistent bool
	// Seed seeds the probabilistic stream; the zero value is a valid seed,
	// so two zero-configured devices draw identical streams.
	Seed uint64

	calls atomic.Int64

	mu   sync.Mutex
	rand *rng.SplitMix64
	bad  map[int64]struct{}
}

// ReadAt delegates to the inner device unless this call is selected for
// failure (or hits an offset a persistent fault already claimed).
func (d *FaultDevice) ReadAt(p []byte, off int64) error {
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	n := d.calls.Add(1)
	fail := d.FailEvery > 0 && n%d.FailEvery == 0
	if !fail && d.FailProb > 0 {
		d.mu.Lock()
		if d.rand == nil {
			d.rand = rng.New(d.Seed)
		}
		fail = d.rand.Float64() < d.FailProb
		d.mu.Unlock()
	}
	if d.Persistent {
		d.mu.Lock()
		if _, dead := d.bad[off]; dead {
			fail = true
		} else if fail {
			if d.bad == nil {
				d.bad = map[int64]struct{}{}
			}
			d.bad[off] = struct{}{}
		}
		d.mu.Unlock()
	}
	if fail {
		return ErrInjected
	}
	return d.Inner.ReadAt(p, off)
}

// Stats returns the inner device's counters.
func (d *FaultDevice) Stats() Stats { return d.Inner.Stats() }
