// Package rng provides the deterministic pseudo-random primitives used by
// every synthetic-data generator in the repository.
//
// All experiment drivers are seeded, so tables and figures reproduce
// bit-identically across runs and machines. The generators here are
// splitmix64 (sequence generation) and a 3-D lattice hash built on the same
// mixing function (procedural noise).
package rng

// SplitMix64 is a tiny, fast, full-period 64-bit PRNG. The zero value is a
// valid generator (seeded with 0).
type SplitMix64 struct {
	state uint64
}

// New returns a SplitMix64 seeded with seed.
func New(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return Mix(s.state)
}

// Float64 returns a uniform value in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Mix is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash3 hashes a 3-D integer lattice point and a seed to 64 well-mixed bits.
// It is the basis for the value noise in package volume.
func Hash3(x, y, z int32, seed uint64) uint64 {
	h := seed
	h = Mix(h ^ uint64(uint32(x)))
	h = Mix(h ^ uint64(uint32(y))<<1)
	h = Mix(h ^ uint64(uint32(z))<<2)
	return h
}

// Hash3Float returns a uniform [0,1) value for a lattice point.
func Hash3Float(x, y, z int32, seed uint64) float32 {
	return float32(Hash3(x, y, z, seed)>>40) / (1 << 24)
}
