package obs

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "test counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("x_total", ""); again != c {
		t.Error("re-registering a counter returned a different handle")
	}

	g := r.Gauge("x_gauge", "test gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	r.GaugeFunc("x_live", "computed", func() float64 { return 7 })

	defer func() {
		if recover() == nil {
			t.Error("registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "kind clash")
}

func TestBucketIndexMonotone(t *testing.T) {
	// Every bound maps into its own bucket; one past it maps into the next.
	for i, b := range histBoundNS {
		if got := bucketIndex(b); got != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d", b, got, i)
		}
		if got := bucketIndex(b + 1); got != i+1 {
			t.Fatalf("bucketIndex(%d) = %d, want %d", b+1, got, i+1)
		}
	}
	if got := bucketIndex(0); got != 0 {
		t.Errorf("bucketIndex(0) = %d, want 0", got)
	}
}

// TestHistogramQuantiles checks the estimator against exact sample quantiles:
// log-bucketed estimates must land within one bucket ratio (√2) of truth.
func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	rnd := rand.New(rand.NewSource(1))
	n := 20000
	samples := make([]float64, n)
	for i := range samples {
		// Log-uniform over 10µs..1s — spans many buckets.
		ns := math.Pow(10, 4+5*rnd.Float64())
		samples[i] = ns
		h.Observe(time.Duration(ns))
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(n-1))]
		got := float64(h.Quantile(q))
		if ratio := got / exact; ratio < 1/1.5 || ratio > 1.5 {
			t.Errorf("q%v: estimate %v vs exact %v (ratio %.2f)", q, time.Duration(got), time.Duration(exact), ratio)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("Quantile(1) = %v, want max %v", h.Quantile(1), h.Max())
	}
	if h.Count() != int64(n) {
		t.Errorf("count = %d, want %d", h.Count(), n)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

// TestHistogramZeroAllocObserve gates the record path: Observe must not
// allocate — it runs inside the extraction pipeline's worker loop.
func TestHistogramZeroAllocObserve(t *testing.T) {
	h := NewHistogram()
	c := &Counter{}
	g := &Gauge{}
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(137 * time.Microsecond)
		c.Inc()
		g.Set(1.5)
	})
	if allocs != 0 {
		t.Errorf("record path allocates %v per op, want 0", allocs)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(k*1000+i) * time.Microsecond)
			}
		}(k)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_total", "a counter").Add(3)
	r.Gauge("demo_gauge", "a gauge").Set(1.25)
	r.GaugeFunc("demo_live", "a live gauge", func() float64 { return 9 })
	h := r.Histogram("demo_seconds", "a histogram")
	h.Observe(2 * time.Millisecond)
	h.Observe(40 * time.Millisecond)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE demo_total counter", "demo_total 3",
		"# TYPE demo_gauge gauge", "demo_gauge 1.25",
		"demo_live 9",
		"# TYPE demo_seconds histogram",
		`demo_seconds_bucket{le="+Inf"} 2`,
		"demo_seconds_count 2",
		"demo_seconds_sum 0.042",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing and end at count.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "demo_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts decreased: %q after %d", line, last)
		}
		last = v
	}
	if last != 2 {
		t.Errorf("final cumulative bucket = %d, want 2", last)
	}
}

func TestTraceWaterfallAndLanes(t *testing.T) {
	var tr Trace
	tr.Wall = 10 * time.Millisecond
	tr.Add("serve", "queue-wait", 0, 2*time.Millisecond)
	tr.Add("serve", "extract", 2*time.Millisecond, 8*time.Millisecond)
	tr.Add("n0/prod", "query+read", 2*time.Millisecond, 5*time.Millisecond)
	if lanes := tr.Lanes(); len(lanes) != 2 || lanes[0] != "serve" || lanes[1] != "n0/prod" {
		t.Errorf("lanes = %v", lanes)
	}
	out := tr.String()
	for _, want := range []string{"queue-wait", "extract", "query+read", "■"} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}

	var nilT *Trace
	nilT.Add("x", "y", 0, 0) // must not panic
	nilT.Append([]Span{{Name: "z"}}, 0)
	if s := nilT.String(); !strings.Contains(s, "no spans") {
		t.Errorf("nil trace waterfall = %q", s)
	}
}

func TestLogLine(t *testing.T) {
	r := NewRegistry()
	if l := r.LogLine(); l != "no metrics recorded" {
		t.Errorf("empty registry log line = %q", l)
	}
	r.Counter("reqs_total", "").Add(12)
	r.Histogram("lat_seconds", "").Observe(3 * time.Millisecond)
	r.Counter("unused_total", "") // zero → omitted
	l := r.LogLine()
	if !strings.Contains(l, "reqs_total=12") || !strings.Contains(l, "lat_seconds=") {
		t.Errorf("log line = %q", l)
	}
	if strings.Contains(l, "unused_total") {
		t.Errorf("log line includes zero metric: %q", l)
	}
}
