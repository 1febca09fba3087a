// Package harness drives the experiments that regenerate every table and
// figure of the paper's evaluation (§7), plus the ablation studies listed in
// DESIGN.md §5. Each driver returns structured rows whose type declares its
// columns as field tags, and one writer, WriteTable (table.go), prints any of
// them as a text table shaped like the paper's; Experiments (experiments.go)
// registers every driver once with its parameters, and both the root
// BenchmarkExperiments and cmd/isobench are loops over that registry. The
// serving-tier experiments and cmd/isoserve share one Zipf load driver,
// ServingWorkload.Drive (drive.go).
//
// All drivers are deterministic given an RMConfig (sizes, time step, seed).
// Volumes and preprocessed engines are cached per configuration so a full
// table sweep pays the generation cost once.
package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/volume"
)

// RMConfig selects the synthetic Richtmyer–Meshkov workload. The default is
// the paper's down-sampled demonstration size (Figure 4): 256×256×240
// one-byte samples at time step 250.
type RMConfig struct {
	NX, NY, NZ int
	Step       int
	Seed       uint64
	Span       int // metacell span; 0 = the paper's 9
	// CacheBlocks enables an LRU block cache of that many blocks on every
	// node disk (0, the default, keeps the paper's cold-cache I/O model).
	// With it, repeated sweeps — isovalue scans, balance tables — stop
	// re-reading hot index and brick blocks.
	CacheBlocks int
}

// DefaultRM returns the standard experiment configuration.
func DefaultRM() RMConfig {
	return RMConfig{NX: 256, NY: 256, NZ: 240, Step: 250, Seed: 42}
}

// Small returns a reduced configuration for quick runs and -short tests.
func Small() RMConfig {
	return RMConfig{NX: 96, NY: 96, NZ: 90, Step: 250, Seed: 42}
}

func (c RMConfig) span() int {
	if c.Span == 0 {
		return 9
	}
	return c.Span
}

func (c RMConfig) key(procs int) string {
	return fmt.Sprintf("%dx%dx%d/s%d/seed%d/span%d/p%d/c%d", c.NX, c.NY, c.NZ, c.Step, c.Seed, c.span(), procs, c.CacheBlocks)
}

// Sweep returns the paper's isovalue sweep: 10 through 210 in steps of 20.
func Sweep() []float32 {
	var isos []float32
	for v := float32(10); v <= 210; v += 20 {
		isos = append(isos, v)
	}
	return isos
}

// cache holds generated volumes and preprocessed engines for the process
// lifetime. Experiment workloads are small enough (tens of MB) that caching
// is always worthwhile.
var cache struct {
	sync.Mutex
	vols map[string]*volume.Grid
	engs map[string]*cluster.Engine
}

// Volume returns the (cached) RM volume for a configuration.
func Volume(cfg RMConfig) *volume.Grid {
	key := cfg.key(0)
	cache.Lock()
	defer cache.Unlock()
	if cache.vols == nil {
		cache.vols = map[string]*volume.Grid{}
	}
	if g, ok := cache.vols[key]; ok {
		return g
	}
	g := volume.RichtmyerMeshkov(cfg.NX, cfg.NY, cfg.NZ, cfg.Step, cfg.Seed)
	cache.vols[key] = g
	return g
}

// Engine returns the (cached) preprocessed engine for a configuration and
// node count.
func Engine(cfg RMConfig, procs int) (*cluster.Engine, error) {
	key := cfg.key(procs)
	cache.Lock()
	if cache.engs == nil {
		cache.engs = map[string]*cluster.Engine{}
	}
	if e, ok := cache.engs[key]; ok {
		cache.Unlock()
		return e, nil
	}
	cache.Unlock()

	g := Volume(cfg)
	e, err := cluster.Build(g, cluster.Config{Procs: procs, Span: cfg.Span, CacheBlocks: cfg.CacheBlocks})
	if err != nil {
		return nil, err
	}
	cache.Lock()
	cache.engs[key] = e
	cache.Unlock()
	return e, nil
}

// mtps converts a triangle count and duration to millions of triangles per
// second (0 for non-positive durations).
func mtps(tris int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(tris) / d.Seconds() / 1e6
}
