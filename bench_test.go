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

// BenchmarkExtractStreaming measures one complete single-node extraction at
// the mid isovalue — index query, block reads and weld on the bounded-memory
// streaming pipeline — and reports the surface's triangles and the
// pipeline's peak record staging.
func BenchmarkExtractStreaming(b *testing.B) {
	eng, err := harness.Engine(benchCfg(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		if res, err = eng.Extract(context.Background(), 110, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Triangles), "triangles")
	b.ReportMetric(float64(res.PerNode[0].PeakBufferedBytes), "peak-buffered-bytes")
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

// BenchmarkServeQueryHot measures the server's hot path: a cache-resident
// surface served with no backend work. frame is the lookup a replica serves
// its wire from (QueryFrame: the sealed frame, no soup); decode is Query, the
// in-process caller's path: the same lookup plus the decode of every node's
// chunks into a soup of the caller's own.
func BenchmarkServeQueryHot(b *testing.B) {
	eng, err := harness.Engine(harness.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.New(eng, serve.Config{})
	if _, err := srv.QueryFrame(context.Background(), 0, 110); err != nil {
		b.Fatal(err)
	}
	for _, path := range []struct {
		name  string
		query func(context.Context, int, float32) (*serve.Response, error)
	}{{"frame", srv.QueryFrame}, {"decode", srv.Query}} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := path.query(context.Background(), 0, 110); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
