// Package cli declares the flags the commands share to name a volume — a
// volume file (-in) or the synthetic Richtmyer–Meshkov generator (-nx -ny
// -nz -step -seed) — and, as each command needs them, -procs, -span and
// -data. It turns them into what each command consumes: a grid, an engine,
// or a time-varying engine keyed by -step's steps.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/volume"
)

// Flags picks what Volume declares beside the volume flags.
type Flags uint

const (
	Range Flags = 1 << iota // -step also takes FROM:TO[:STRIDE]
	Data                    // -data: a preprocessed dataset directory
	Procs                   // -procs: cluster nodes
	Span                    // -span: metacell edge length
)

// Source is what the flags name; read it after flag.Parse.
type Source struct {
	In, Data                string
	Nx, Ny, Nz, Procs, Span int // Procs and Span stay 0, cluster's defaults, unless declared
	Seed                    uint64
	Steps                   []int // -step's time steps in sweep order
	Ranged                  bool  // -step was FROM:TO[:STRIDE]
}

// Volume declares the volume flags, and those f picks, on the default flag
// set; the default volume is the paper's down-sampled 256×256×240 step 250.
func Volume(f Flags) *Source {
	s := &Source{Steps: []int{250}}
	flag.StringVar(&s.In, "in", "", "volume file in this repository's format (empty: generate synthetic RM data)")
	flag.IntVar(&s.Nx, "nx", 256, "synthetic volume X samples")
	flag.IntVar(&s.Ny, "ny", 256, "synthetic volume Y samples")
	flag.IntVar(&s.Nz, "nz", 240, "synthetic volume Z samples")
	flag.Uint64Var(&s.Seed, "seed", 42, "synthetic generator seed")
	usage := "synthetic RM time step (default 250)"
	if f&Range != 0 {
		usage = "synthetic RM time step N, or every STRIDE-th of the steps FROM:TO[:STRIDE] (default 250)"
	}
	flag.Func("step", usage, func(v string) (err error) {
		if s.Steps, s.Ranged, err = parseSteps(v); err == nil && s.Ranged && f&Range == 0 {
			err = errors.New("want one time step")
		}
		return err
	})
	if f&Data != 0 {
		flag.StringVar(&s.Data, "data", "", "preprocessed dataset directory (empty: preprocess -in or the synthetic volume in memory)")
	}
	if f&Procs != 0 {
		flag.IntVar(&s.Procs, "procs", 4, "cluster nodes / local disks")
	}
	if f&Span != 0 {
		flag.IntVar(&s.Span, "span", 9, "metacell edge length in samples")
	}
	return s
}

// parseSteps reads N or FROM:TO[:STRIDE] (inclusive); ranged reports the
// second form.
func parseSteps(v string) (steps []int, ranged bool, err error) {
	f := strings.Split(v, ":")
	n := []int{0, 0, 1} // FROM, TO, STRIDE
	for i := 0; i < len(f) && i < len(n) && err == nil; i++ {
		n[i], err = strconv.Atoi(f[i])
	}
	if len(f) == 1 {
		n[1] = n[0]
	}
	if err != nil || len(f) > len(n) || n[0] < 0 || n[0] > n[1] || n[1] >= volume.RMSteps || n[2] < 1 {
		return nil, false, fmt.Errorf("want N or FROM:TO[:STRIDE] with 0 ≤ FROM ≤ TO < %d and STRIDE ≥ 1", volume.RMSteps)
	}
	for s := n[0]; s <= n[1]; s += n[2] {
		steps = append(steps, s)
	}
	return steps, len(f) > 1, nil
}

// Grid reads -in or generates the volume.
func (s *Source) Grid() (*volume.Grid, error) {
	if s.In != "" {
		return volume.ReadFile(s.In)
	}
	return volume.RichtmyerMeshkov(s.Nx, s.Ny, s.Nz, s.Steps[0], s.Seed), nil
}

// Build preprocesses the volume onto -procs node disks, stored under dir
// when it is non-empty and in memory otherwise. -in is streamed one z-slab
// at a time, so the volume never needs to fit in memory.
func (s *Source) Build(dir string) (*cluster.Engine, error) {
	cfg := cluster.Config{Procs: s.Procs, Span: s.Span, Dir: dir}
	if s.In != "" {
		return cluster.BuildFromVolumeFile(s.In, cfg)
	}
	return cluster.Build(volume.RichtmyerMeshkov(s.Nx, s.Ny, s.Nz, s.Steps[0], s.Seed), cfg)
}

// Extractor preprocesses every step of -step in memory into one
// cluster.TimeVaryingEngine, or opens -data, or preprocesses -in in memory.
// The last two hold one volume, which the engine keys by the step -step
// names. The engine lives as long as the command.
func (s *Source) Extractor() (*cluster.TimeVaryingEngine, error) {
	if s.Data == "" && s.In == "" {
		return cluster.BuildTimeVarying(volume.TimeVaryingRM(s.Nx, s.Ny, s.Nz, s.Seed), s.Steps, cluster.Config{Procs: s.Procs, Span: s.Span})
	}
	if s.Ranged {
		return nil, errors.New("a -step range sweeps the synthetic generator: not with -data or -in")
	}
	open := cluster.Open
	if s.Data == "" {
		open = s.Build // in memory: Data is ""
	}
	eng, err := open(s.Data)
	if err != nil {
		return nil, err
	}
	return &cluster.TimeVaryingEngine{Steps: map[int]*cluster.Engine{s.Steps[0]: eng}}, nil
}
