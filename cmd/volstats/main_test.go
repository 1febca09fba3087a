package main

import (
	"io"
	"math"
	"testing"

	"repro/internal/volume"
)

// TestReportNonFiniteSamples runs the whole report over f32 volumes holding
// NaN, ±Inf and ±MaxFloat32 samples, and over one of nothing but NaN: none
// may panic, every finite sample lands in exactly one histogram bucket, and
// every other sample is counted apart.
func TestReportNonFiniteSamples(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	// ramp is a 4×4×4 f32 volume of distinct values whose first samples are
	// replaced by special.
	ramp := func(special ...float32) *volume.Grid {
		g := volume.New(4, 4, 4, volume.F32)
		for i := 0; i < g.Samples(); i++ {
			v := float32(i)
			if i < len(special) {
				v = special[i]
			}
			g.Set(i%4, i/4%4, i/16, v)
		}
		return g
	}
	for _, c := range []struct {
		name      string
		g         *volume.Grid
		nonFinite int
	}{
		{"NaN", ramp(nan), 1},
		{"+Inf", ramp(inf), 1},
		{"-Inf", ramp(-inf), 1},
		{"±Inf and NaN", ramp(inf, nan, -inf), 3},
		{"±MaxFloat32", ramp(math.MaxFloat32, -math.MaxFloat32), 0},
		{"all NaN", volume.Constant(4, 4, 4, volume.F32, nan), 64},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := valueHistogram(c.g, 16)
			bucketed := 0
			for _, n := range h.counts {
				bucketed += n
			}
			if finite := c.g.Samples() - c.nonFinite; h.nonFinite != c.nonFinite || bucketed != finite {
				t.Errorf("%d samples bucketed and %d counted apart, want %d and %d", bucketed, h.nonFinite, finite, c.nonFinite)
			}
			if err := report(io.Discard, c.g, 3); err != nil {
				t.Error(err)
			}
		})
	}
}
