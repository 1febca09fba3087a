// Instrumentation-overhead benchmarks: the same single-node streaming
// extraction as BenchmarkExtractStreaming, but on an engine built with a
// metrics registry, so the cost of the observability layer's record path is
// directly comparable. TestInstrumentationOverheadGate turns the pair into a
// CI gate: instrumented must stay within 3% of plain.
package repro

import (
	"context"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

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
// extraction is more than 3% slower than the uninstrumented one. The
// estimate is the median of overheadPairs ratios, each from one pair of
// back-to-back extractions, instrumented over plain, with the side that
// goes first alternating from pair to pair: host drift between pairs
// cancels inside each ratio, the order within a pair cancels across them,
// and one disturbed pair moves the median by a rank, not by its size.
// Opt-in via OBS_OVERHEAD_GATE=1 — it times real extractions for tens of
// seconds.
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
	// timed returns the wall time of one extraction on eng, started on a
	// freshly collected heap so neither side pays the other's garbage.
	timed := func(eng *Engine) float64 {
		runtime.GC()
		start := time.Now()
		if _, err := eng.Extract(context.Background(), 110, Options{}); err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(start))
	}
	// Warm both paths (page cache, pools) before timing anything.
	for range 3 {
		timed(plain)
		timed(instr)
	}

	ratios := make([]float64, overheadPairs)
	for i := range ratios {
		var p, in float64
		if i%2 == 0 {
			p = timed(plain)
			in = timed(instr)
		} else {
			in = timed(instr)
			p = timed(plain)
		}
		ratios[i] = in / p
	}
	slices.Sort(ratios)
	ratio := ratios[overheadPairs/2]
	t.Logf("median of %d pair ratios %.4f (quartiles %.4f, %.4f)", overheadPairs, ratio, ratios[overheadPairs/4], ratios[3*overheadPairs/4])
	if ratio > 1.03 {
		t.Errorf("instrumentation overhead %.2f%% exceeds the 3%% budget", 100*(ratio-1))
	}
}

// overheadPairs is the overhead gate's sample: odd, so the median is one
// pair's ratio, and large enough that the median moves by well under the 3%
// bound between runs on a shared 2-core host (pair ratios there spread
// ±5% around it).
const overheadPairs = 201
