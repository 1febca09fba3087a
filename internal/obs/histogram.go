package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: geometric (log-spaced) bounds with two buckets per
// octave — bound k is histMinNS·2^(k/2) nanoseconds — from 1 µs up to ~2
// minutes, plus one overflow bucket. Half-octave resolution keeps any
// quantile estimate within ~±20% of the true value, constant memory
// regardless of sample count, and two buckets per power of two is fine-
// grained enough to separate a cache hit (µs) from an extraction (ms–s).
const (
	histMinNS   = 1_000 // lowest finite bound: 1 µs
	histBounds  = 55    // finite bounds; top ≈ 134 s
	histBuckets = histBounds + 1
)

// histBoundNS holds the finite bucket upper bounds in nanoseconds.
var histBoundNS = func() [histBounds]int64 {
	var b [histBounds]int64
	for k := range b {
		b[k] = int64(math.Round(histMinNS * math.Pow(2, float64(k)/2)))
	}
	return b
}()

// Histogram is a fixed-memory log-bucketed duration histogram. Observe is a
// handful of atomic adds — safe for hot paths, zero allocation, no locks.
// Construct with NewHistogram or Registry.Histogram.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// NewHistogram returns an empty histogram (also usable standalone, outside
// any registry — cmd latency reporting does).
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex returns the bucket for a sample of ns nanoseconds: the first
// bound ≥ ns, or the overflow bucket.
func bucketIndex(ns int64) int {
	lo, hi := 0, histBounds // invariant: bounds[<lo] < ns, bounds[≥hi] ≥ ns (hi==histBounds ⇒ overflow)
	for lo < hi {
		mid := (lo + hi) / 2
		if histBoundNS[mid] < ns {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Max returns the largest recorded duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the recorded samples; see
// HistogramSnapshot.Quantile for the estimation rule.
func (h *Histogram) Quantile(q float64) time.Duration { return h.Snapshot().Quantile(q) }

// Snapshot captures a consistent-enough copy for aggregation and exposition.
// (Buckets are read one by one; a snapshot taken during concurrent writes may
// be off by the writes in flight, which is inherent to lock-free counters and
// harmless for monitoring.)
type HistogramSnapshot struct {
	Buckets [histBuckets]int64 `json:"-"` // per-bucket counts, index matches histBoundNS
	Count   int64              `json:"count"`
	Sum     time.Duration      `json:"sum_ns"`
	Max     time.Duration      `json:"max_ns"`

	// Pre-computed summary quantiles for JSON consumers.
	P50  time.Duration `json:"p50_ns"`
	P90  time.Duration `json:"p90_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
}

// Snapshot returns the histogram's current state with summary quantiles
// filled in.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	s.P999 = s.Quantile(0.999)
	return s
}

// Quantile estimates the q-quantile by linear interpolation inside the
// bucket holding the target rank. The top of the last occupied bucket is
// clamped to the recorded max, so Quantile(1) == Max exactly.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := int64(0)
			if i > 0 {
				lo = histBoundNS[i-1]
			}
			hi := s.Max.Nanoseconds()
			if i < histBounds && histBoundNS[i] < hi {
				hi = histBoundNS[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(n)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += n
	}
	return s.Max
}

// BucketBound returns bucket i's upper bound (math.Inf for the overflow
// bucket), in seconds — the value Prometheus exposition labels with le.
func BucketBound(i int) float64 {
	if i >= histBounds {
		return math.Inf(1)
	}
	return float64(histBoundNS[i]) / 1e9
}
