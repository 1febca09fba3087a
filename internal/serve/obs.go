package serve

import (
	"time"

	"repro/internal/obs"
)

// serveMetrics holds the server's pre-resolved metric handles. The counters
// are what Stats reports, one for one (Stats is the programmatic snapshot of
// them; the registry is the exposition path), the histograms add what a
// snapshot cannot: latency distributions with constant memory.
type serveMetrics struct {
	reg *obs.Registry

	requests    *obs.Counter
	cacheHits   *obs.Counter
	coalesced   *obs.Counter
	extractions *obs.Counter
	rejected    *obs.Counter
	canceled    *obs.Counter
	evictions   *obs.Counter

	requestLatency *obs.Histogram // successful responses, any source
	queueWait      *obs.Histogram // admission wait of extraction leaders
	extractLatency *obs.Histogram // backend extraction wall time
}

// newServeMetrics registers the server's metrics into reg and wires the live
// gauges to the server's own state.
func newServeMetrics(s *Server, reg *obs.Registry) *serveMetrics {
	m := &serveMetrics{
		reg:            reg,
		requests:       reg.Counter("serve_requests_total", "queries received"),
		cacheHits:      reg.Counter("serve_cache_hits_total", "requests served straight from the mesh cache"),
		coalesced:      reg.Counter("serve_coalesced_total", "requests that joined an in-flight identical extraction"),
		extractions:    reg.Counter("serve_extractions_total", "extractions completed against the backend"),
		rejected:       reg.Counter("serve_rejected_total", "requests shed by admission control"),
		canceled:       reg.Counter("serve_canceled_total", "requests abandoned by their context"),
		evictions:      reg.Counter("serve_evictions_total", "mesh cache entries evicted to fit the byte budget"),
		requestLatency: reg.Histogram("serve_request_seconds", "served request latency, cache hits and extractions alike"),
		queueWait:      reg.Histogram("serve_queue_wait_seconds", "extraction time spent waiting for an admission slot"),
		extractLatency: reg.Histogram("serve_extract_seconds", "backend extraction wall time"),
	}
	reg.GaugeFunc("serve_inflight", "extractions running now", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.running)
	})
	reg.GaugeFunc("serve_queued", "extractions waiting for a slot now", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.queued)
	})
	reg.GaugeFunc("serve_cache_meshes", "mesh cache entries resident", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n, _ := s.cache.size()
		return float64(n)
	})
	reg.GaugeFunc("serve_cache_bytes", "bytes charged to resident mesh cache entries", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, b := s.cache.size()
		return float64(b)
	})
	return m
}

// traceCacheHit builds the single-span trace of a cache hit.
func traceCacheHit(enabled bool, wall time.Duration) *obs.Trace {
	if !enabled {
		return nil
	}
	tr := &obs.Trace{Wall: wall}
	tr.Add("serve", "cache-hit", 0, wall)
	return tr
}
