package repro

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsEndpointIntegration stands up the full observability path: an
// engine and a server sharing one registry, a few queries driven through
// them, and the HTTP handler scraped like Prometheus would. The engine's
// pipeline histograms, the device counters, and the server's request metrics
// must all land on the same /metrics page in exposition format 0.0.4.
func TestMetricsEndpointIntegration(t *testing.T) {
	ctx := context.Background()
	reg := NewMetrics()
	eng, err := Preprocess(GenerateRM(33, 33, 30, 230, 7), Config{Procs: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, ServeConfig{Metrics: reg, Trace: true})
	for _, iso := range []float32{150, 150, 190} { // extract, cache hit, extract
		if _, err := srv.Query(ctx, 0, iso); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(MetricsHandler(reg))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		// Histogram series: buckets, sum, count for request latency and
		// queue wait, plus the engine's extraction histogram.
		`serve_request_seconds_bucket{le="`,
		`serve_request_seconds_bucket{le="+Inf"} 3`,
		"serve_request_seconds_sum ",
		"serve_request_seconds_count 3",
		`serve_queue_wait_seconds_bucket{le="`,
		"serve_queue_wait_seconds_sum ",
		"serve_queue_wait_seconds_count 2",
		`cluster_extract_seconds_bucket{le="`,
		"# TYPE serve_request_seconds histogram",
		// Counters from both layers.
		"# TYPE serve_requests_total counter",
		"serve_requests_total 3",
		"serve_cache_hits_total 1",
		"cluster_extractions_total 2",
		"blockio_read_bytes_total ",
		// Live gauges.
		"# TYPE serve_inflight gauge",
		"serve_inflight 0",
		"blockio_blocks_read ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full /metrics body:\n%s", body)
	}

	code, body = get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d", code)
	}
	var snaps []map[string]any
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("/statusz is not a JSON array: %v\n%s", err, body)
	}
	names := map[string]bool{}
	for _, s := range snaps {
		if n, ok := s["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"serve_requests_total", "serve_request_seconds", "cluster_extract_seconds"} {
		if !names[want] {
			t.Errorf("/statusz missing metric %q", want)
		}
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d, want 200", code)
	}
	if code, _ := get("/debug/pprof/goroutine?debug=1"); code != http.StatusOK {
		t.Errorf("/debug/pprof/goroutine status %d, want 200", code)
	}
}
