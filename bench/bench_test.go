package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// smokeConfig shrinks every dimension of the benchmark — volume, request
// counts, caches — and leaves the collector alone. It asserts on no
// wall-clock value: what it pins is that every workload and both passes run,
// check their outputs and emit what BENCHMARK.json says they emit.
func smokeConfig(t *testing.T) config {
	return config{
		nx: 96, ny: 96, nz: 90, step: 250, dataSeed: 42,
		warmupRequests:  4,
		setupRepeats:    1,
		seconds:         60, // never binds: maxRequests ends the phases
		maxRequests:     20,
		hotCacheBytes:   1 << 30,
		churnCacheBytes: 8 << 20, // the 11 meshes total ~50 MB at this size
		outDir:          t.TempDir(),
	}
}

func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	ctx := context.Background()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			res, err := endToEnd(ctx, cfg, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}

			res, err = traced(ctx, cfg, w, 1, settings{Volume: "smoke"})
			if err != nil {
				t.Fatal(err) // includes a staged mesh that is not Extract's, byte for byte
			}
			checkResult(t, res, spec.PerLayer)
			checkSpans(t, spanFile(cfg, w))

			rec := record{Workload: w.name, Seed: 1, Seconds: cfg.seconds, Trace: 1, result: res}
			data, err := json.Marshal(resultFile{Runs: []record{rec}})
			if err != nil {
				t.Fatal(err)
			}
			var back resultFile
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Runs[0], rec) {
				t.Error("a run does not survive a JSON round trip")
			}
		})
	}
}

// checkResult asserts that res holds exactly the named metrics, each with
// the unit BENCHMARK.json gives it and a finite value, and that no request
// failed.
func checkResult(t *testing.T, res result, want []metricSpec) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s is %v", m.Name, got.Value)
		}
	}
}

// checkSpans asserts the span file is well formed: every span ends after it
// starts, and a child lies inside its parent and belongs to its request.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatal("no spans written")
	}
	for i, s := range tf.Spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			t.Fatalf("span %d (%s) names a later span as its parent", i, s.Name)
		}
		p := tf.Spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s) lies outside its parent %s", i, s.Name, p.Name)
		}
		if s.Request != p.Request {
			t.Fatalf("span %d (%s) is of request %d, its parent of request %d", i, s.Name, s.Request, p.Request)
		}
	}
}

// The acceptance spread is defined by Python's statistics.quantiles.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{10, 20, 40}, [3]float64{10, 20, 40}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, Python gives %v", c.in, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := benchSpec{EndToEnd: []metricSpec{
		{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "mtri_per_s", Unit: "Mtri/s", Better: "higher", Bound: 0.1},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"cold_sweep"})
	runs := func(lat, rate []float64) resultFile {
		var f resultFile
		for i := range lat {
			f.Runs = append(f.Runs, record{Workload: "cold_sweep", result: result{Metrics: metrics{
				"latency_ms_p50": {lat[i], "ms"}, "mtri_per_s": {rate[i], "Mtri/s"}}}})
		}
		return f
	}
	base := runs([]float64{100, 101, 99}, []float64{10, 10.1, 9.9})
	for _, c := range []struct {
		name    string
		b       resultFile
		wantErr bool
		want    string
	}{
		{"same", base, false, "0 regressed, 0 unresolved"},
		{"slower", runs([]float64{120, 121, 119}, []float64{10, 10.1, 9.9}), true, "1 regressed"},
		{"lower rate", runs([]float64{100, 101, 99}, []float64{8, 8.1, 7.9}), true, "1 regressed"},
		{"noisy", runs([]float64{80, 100, 125}, []float64{10, 10.1, 9.9}), false, "0 regressed, 1 unresolved"},
		{"noisy but every run better", runs([]float64{60, 75, 90}, []float64{10, 10.1, 9.9}), false, "0 regressed, 0 unresolved"},
	} {
		var out bytes.Buffer
		err := compareRuns(&out, spec, base, c.b)
		if (err != nil) != c.wantErr || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: err=%v, output:\n%s", c.name, err, out.String())
		}
	}
}
