// Instrumentation-overhead benchmarks: the same single-node streaming
// extraction as BenchmarkExtractStreaming, but on an engine built with a
// metrics registry, so the cost of the observability layer's record path is
// directly comparable. TestInstrumentationOverheadGate turns the pair into a
// CI gate: instrumented must stay within 3% of plain.
package repro

import (
	"context"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/harness"
)

// instrumented memoizes the metrics-enabled twin of the harness's memoized
// plain engine, so repeated testing.Benchmark calls don't re-preprocess.
var instrumented struct {
	once sync.Once
	eng  *Engine
	err  error
}

func instrumentedEngine() (*Engine, error) {
	instrumented.once.Do(func() {
		instrumented.eng, instrumented.err = Preprocess(harness.Volume(benchCfg()), Config{Procs: 1, Metrics: NewMetrics()})
	})
	return instrumented.eng, instrumented.err
}

// BenchmarkExtractStreamingInstrumented is BenchmarkExtractStreaming with
// every histogram and counter of the observability layer live.
func BenchmarkExtractStreamingInstrumented(b *testing.B) {
	eng, err := instrumentedEngine()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Extract(context.Background(), 110, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInstrumentationOverheadGate fails if the instrumented streaming
// extraction is more than 3% slower than the uninstrumented one. Trials are
// interleaved and each side keeps its best time, so machine drift hits both
// equally. Opt-in via OBS_OVERHEAD_GATE=1 — it benchmarks for real and takes
// tens of seconds.
func TestInstrumentationOverheadGate(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_GATE") == "" {
		t.Skip("set OBS_OVERHEAD_GATE=1 to run the instrumentation overhead gate")
	}
	plain, err := harness.Engine(benchCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	instr, err := instrumentedEngine()
	if err != nil {
		t.Fatal(err)
	}
	extract := func(eng *Engine) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Extract(context.Background(), 110, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// Warm both paths (page cache, pools) before timing anything.
	testing.Benchmark(extract(plain))
	testing.Benchmark(extract(instr))

	const trials = 5
	plainBest, instrBest := math.MaxFloat64, math.MaxFloat64
	for i := 0; i < trials; i++ {
		if ns := float64(testing.Benchmark(extract(plain)).NsPerOp()); ns < plainBest {
			plainBest = ns
		}
		if ns := float64(testing.Benchmark(extract(instr)).NsPerOp()); ns < instrBest {
			instrBest = ns
		}
	}
	ratio := instrBest / plainBest
	t.Logf("plain %.3fms, instrumented %.3fms, ratio %.4f", plainBest/1e6, instrBest/1e6, ratio)
	if ratio > 1.03 {
		t.Errorf("instrumentation overhead %.2f%% exceeds the 3%% budget", 100*(ratio-1))
	}
}
