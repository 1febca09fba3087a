package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported number, as the benchmark contract prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value. set refuses to report a name
// twice or a value that is not finite, so a pass either emits every metric
// exactly once or fails loudly.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if _, dup := m[name]; dup {
		panic("bench: metric " + name + " reported twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %s is not finite (%v)", name, v))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the contract's result line: the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// settings records how a run was made steady, so two result files can be
// checked for like-for-like conditions before they are compared.
type settings struct {
	Volume         string `json:"volume"`
	HeapTriggerMB  int    `json:"heap_trigger_mb"`
	WarmupRequests int    `json:"warmup_requests"`
	SetupRepeats   int    `json:"setup_repeats"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	NumCPU         int    `json:"nproc"`
	GoVersion      string `json:"go_version"`
}

// record is one run of one workload as kept in a -json file.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    int      `json:"trace"`
	Settings settings `json:"settings"`
	result
}

// resultFile is the -json file format.
type resultFile struct {
	Runs []record `json:"runs"`
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func writeResults(path string, f resultFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads: the
// metric names it must emit and the bounds -compare and -aa judge by.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (the mean of the middle two for an
// even count), 0 for an empty slice — the reading of a layer a workload does
// not exercise.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which is
// how the benchmark's acceptance spread is defined. It needs two values.
func quartiles(v []float64) (q [3]float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		panic("bench: quartiles of fewer than two values")
	}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q := quartiles(v)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}
