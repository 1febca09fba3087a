package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// isovalues is the paper's isovalue sweep, the key set of every workload:
// on the bench volume its surfaces run from 0.55 to 1.67 million triangles
// (20–60 MB of triangle soup each), crossing sparse and dense ranges.
var isovalues = []float32{10, 30, 50, 70, 90, 110, 130, 150, 170, 190, 210}

// config sizes a run. fullConfig is what the benchmark measures; the smoke
// test shrinks every dimension and nothing else.
type config struct {
	nx, ny, nz, step int
	dataSeed         uint64

	heapTrigger    uint64  // collect when the heap holds this much and at no other time (0 = leave the collector alone)
	warmupRequests int     // untimed requests replayed from the workload's own stream
	setupRepeats   int     // set-ups per run; setup_s is their median
	seconds        float64 // length of the timed phase
	maxRequests    int     // cap on timed requests (0 = none; the smoke test sets it)

	hotCacheBytes   int64 // per-replica mesh cache on routed_hot: every mesh resident
	churnCacheBytes int64 // per-replica mesh cache on routed_churn: a quarter of the working set

	outDir string // span files and the cold workload's node-disk files
}

func fullConfig(seconds float64, outDir string) config {
	return config{
		nx: 256, ny: 256, nz: 240, step: 250, dataSeed: 42,
		heapTrigger:     1500 << 20,
		warmupRequests:  100,
		setupRepeats:    5,
		seconds:         seconds,
		hotCacheBytes:   1 << 30,
		churnCacheBytes: 96 << 20,
		outDir:          outDir,
	}
}

// workload is one traffic mix. All three are closed loops: a client sends
// its next request only when the previous mesh is in its hands.
type workload struct {
	name    string
	clients int  // closed-loop clients; never more than the host's 2 cores
	routed  bool // through Router.Query over loopback TCP, else Engine.Extract
	zipf    bool // Zipf(1.1) popularity over the keys, else every key equally
}

var workloads = []workload{
	{name: "cold_sweep", clients: 1},
	{name: "routed_hot", clients: 2, routed: true, zipf: true},
	{name: "routed_churn", clients: 2, routed: true, zipf: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) cacheBytes(cfg config) int64 {
	if w.name == "routed_churn" {
		return cfg.churnCacheBytes
	}
	return cfg.hotCacheBytes
}

// deck returns the key indexes of one pass of the workload's mix: every key
// once for a sweep, or zipfDeckSize draws apportioned to Zipf(1.1) weights.
// Streams shuffle whole decks, so every run sees the same mix of mesh sizes
// whatever its seed and only the order differs — the metrics then compare
// across seeds, which is how the benchmark's spread is measured. Rank k is
// the k-th value of the sweep: popularity falls as the isovalue rises.
func (w workload) deck() []int {
	n := len(isovalues)
	if !w.zipf {
		d := make([]int, n)
		for i := range d {
			d[i] = i
		}
		return d
	}
	return zipfDeck(n, 1.1, zipfDeckSize)
}

const zipfDeckSize = 50

// zipfDeck apportions size draws over n ranks in proportion to rank^-s by
// largest remainder, giving every rank at least one.
func zipfDeck(n int, s float64, size int) []int {
	weights := make([]float64, n)
	var total float64
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -s)
		total += weights[k]
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := size
	for k, wt := range weights {
		share := wt / total * float64(size)
		counts[k] = max(1, int(share))
		rem[k] = share - float64(counts[k])
		left -= counts[k]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; left > 0; i, left = i+1, left-1 {
		counts[order[i%n]]++
	}
	var deck []int
	for k, c := range counts {
		for ; c > 0; c-- {
			deck = append(deck, k)
		}
	}
	return deck
}

// stream is one client's endless request sequence: the workload's deck,
// reshuffled each time it runs out.
type stream struct {
	rng  *rand.Rand
	deck []int
	pos  int
}

// newStream seeds client's sequence for one phase of a run. The program
// under test sees only the (step, isovalue) calls the stream produces.
func newStream(w workload, seed int64, phase, client int) *stream {
	src := rand.NewSource(seed*1_000_003 + int64(phase)*1_009 + int64(client))
	s := &stream{rng: rand.New(src), deck: w.deck()}
	s.pos = len(s.deck)
	return s
}

// atDeckEnd reports whether the next request starts a new pass of the deck.
func (s *stream) atDeckEnd() bool { return s.pos == len(s.deck) }

func (s *stream) next() int {
	if s.pos == len(s.deck) {
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		s.pos = 0
	}
	k := s.deck[s.pos]
	s.pos++
	return k
}

// Stream phases, so warm-up and measurement draw different orders.
const (
	phaseWarmup = iota
	phaseTimed
	phaseTraced
)
