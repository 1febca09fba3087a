// Package obs is the observability substrate of the repo: a dependency-free
// metrics registry (atomic counters, gauges, log-bucketed latency
// histograms), lightweight per-extraction stage tracing, and exposition —
// Prometheus text format, a JSON snapshot, pprof, and a one-line periodic
// logger for headless runs.
//
// Design constraints, in order:
//
//   - The record path must be safe for the extraction hot loop: Counter.Add,
//     Gauge.Set and Histogram.Observe are single atomic operations on
//     pre-resolved handles — no locks, no maps, no allocation.
//   - Histograms use constant memory (a fixed set of geometric buckets), so
//     an unbounded open-loop run cannot grow a latency sample slice the way
//     the old sort-the-slice percentile code did.
//   - Everything is pull-model: instrumented components only write counters;
//     aggregation (quantiles, rates, exposition) happens at read time.
//
// Metric names follow the Prometheus convention: snake_case with a subsystem
// prefix and a unit suffix, e.g. serve_request_seconds,
// cluster_triangles_total, blockio_read_seconds.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (negative deltas are ignored: counters are
// monotone by contract).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// kind discriminates registry entries for exposition.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// entry is one registered metric.
type entry struct {
	name string
	help string
	kind kind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Registry is a named set of metrics. Registration is idempotent: asking for
// a name that already exists returns the existing metric (and panics if the
// kinds disagree — that is always a programming error). Registries are safe
// for concurrent use; the returned metric handles are lock-free.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*entry
	ordered []*entry // registration order, for stable exposition
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*entry{}}
}

// register returns the entry for name, creating it with mk on first use.
func (r *Registry) register(name, help string, k kind, mk func() *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != k && !(e.kind == kindGauge && k == kindGaugeFunc) && !(e.kind == kindGaugeFunc && k == kindGauge) {
			panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, e.kind, k))
		}
		return e
	}
	e := mk()
	e.name, e.help, e.kind = name, help, k
	r.byName[name] = e
	r.ordered = append(r.ordered, e)
	return e
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.register(name, help, kindCounter, func() *entry { return &entry{counter: &Counter{}} })
	return e.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.register(name, help, kindGauge, func() *entry { return &entry{gauge: &Gauge{}} })
	return e.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at read time —
// the natural shape for live state like queue depths or cache occupancy. fn
// must be safe to call from any goroutine and must not call back into the
// registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGaugeFunc, func() *entry { return &entry{fn: fn} })
}

// Histogram returns the named latency histogram, creating it on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	e := r.register(name, help, kindHistogram, func() *entry { return &entry{hist: NewHistogram()} })
	return e.hist
}

// MetricSnapshot is one metric's state at snapshot time, JSON-ready for
// /statusz.
type MetricSnapshot struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value,omitempty"` // counters and gauges

	// Histogram summary (nil for scalar metrics).
	Hist *HistogramSnapshot `json:"hist,omitempty"`
}

// Snapshot captures every metric in registration order.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	entries := append([]*entry(nil), r.ordered...)
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(entries))
	for _, e := range entries {
		m := MetricSnapshot{Name: e.name, Kind: e.kind.String(), Help: e.help}
		switch e.kind {
		case kindCounter:
			m.Value = float64(e.counter.Value())
		case kindGauge:
			m.Value = e.gauge.Value()
		case kindGaugeFunc:
			m.Value = e.fn()
		case kindHistogram:
			s := e.hist.Snapshot()
			m.Hist = &s
		}
		out = append(out, m)
	}
	return out
}
