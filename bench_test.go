// Benchmarks regenerating every table and figure of the paper's evaluation
// (§7), plus the ablations of DESIGN.md §5: BenchmarkExperiments runs the
// harness experiment registry, one sub-benchmark per entry, each printing its
// table on the first iteration, so
//
//	go test -bench=. -benchmem
//
// emits the full experiment report. Workloads default to the paper's
// down-sampled demonstration size (256×256×240); cmd/isobench is the same
// loop with flags.
package repro

import (
	"context"
	"io"
	"os"
	"testing"

	"repro/internal/harness"
	"repro/internal/serve"
)

func benchCfg() harness.RMConfig { return harness.DefaultRM() }

// BenchmarkExperiments regenerates every registry entry that fits a
// benchmark run, reporting the entry's headline metric where it has one.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range harness.Experiments("figure4.ppm") {
		if e.Paced {
			continue
		}
		cfg := benchCfg()
		if e.Load {
			cfg = harness.Small()
		}
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var out io.Writer = os.Stdout
				if i > 0 {
					out = io.Discard
				}
				v, err := e.Report(context.Background(), cfg, out)
				if err != nil {
					b.Fatal(err)
				}
				if e.Metric != "" {
					b.ReportMetric(v, e.Metric)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the core operations ---

// BenchmarkQuerySingleIsovalue measures one complete single-node query +
// triangulation at the mid isovalue (default streaming schedule).
func BenchmarkQuerySingleIsovalue(b *testing.B) {
	eng, err := harness.Engine(benchCfg(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var tris int
	for i := 0; i < b.N; i++ {
		res, err := eng.Extract(context.Background(), 110, Options{})
		if err != nil {
			b.Fatal(err)
		}
		tris = res.Triangles
	}
	b.ReportMetric(float64(tris), "triangles")
}

// BenchmarkPreprocess is the benchmark's setup_s under go test: the volume
// bench/ generates (256×256×240 RM, step 250, seed 42) preprocessed onto one
// node disk, memory-backed as the routed workloads set up and file-backed as
// cold_sweep does. The rate is volume bytes preprocessed: the number that
// scales to the paper's 7.5 GB steps. Extraction runs on every core, so read
// it at -cpu 1 and at the host's count.
func BenchmarkPreprocess(b *testing.B) {
	g := GenerateRM(256, 256, 240, 250, 42)
	for _, backing := range []string{"memory", "file"} {
		b.Run(backing, func(b *testing.B) {
			b.SetBytes(g.SizeBytes())
			for i := 0; i < b.N; i++ {
				cfg := Config{Procs: 1, ThreadsPerNode: 1}
				if backing == "file" {
					cfg.Dir = b.TempDir()
				}
				eng, err := Preprocess(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// extractScheduleBench runs a single-node extraction at the mid isovalue
// under the given schedule — the head-to-head pair for the two schedules.
func extractScheduleBench(b *testing.B, extract func(*Engine, context.Context, float32, Options) (*Result, error)) {
	b.Helper()
	eng, err := harness.Engine(benchCfg(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var peak int64
	for i := 0; i < b.N; i++ {
		res, err := extract(eng, context.Background(), 110, Options{})
		if err != nil {
			b.Fatal(err)
		}
		peak = res.MaxPeakBufferedBytes()
	}
	b.ReportMetric(float64(peak), "peak-buffered-bytes")
}

// BenchmarkExtractTwoPhase measures the reference retrieve-then-triangulate
// schedule, whose staging memory grows with the isosurface.
func BenchmarkExtractTwoPhase(b *testing.B) {
	extractScheduleBench(b, (*Engine).ExtractTwoPhase)
}

// BenchmarkExtractStreaming measures the bounded-memory streaming pipeline
// on the identical volume and isovalue.
func BenchmarkExtractStreaming(b *testing.B) {
	extractScheduleBench(b, (*Engine).Extract)
}

// BenchmarkServeQueryHot measures the server's hot path: a cache-resident
// surface served with no backend work.
func BenchmarkServeQueryHot(b *testing.B) {
	eng, err := harness.Engine(harness.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.Config{})
	if _, err := srv.Query(context.Background(), 0, 110); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Query(context.Background(), 0, 110); err != nil {
			b.Fatal(err)
		}
	}
}
