package dist

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestFreeListIsBounded: the list keeps at most freeFrameSlots buffers and
// freeFrameBytes of capacity, prefers large buffers to small ones, hands out
// the tightest fit, and exports what it holds.
func TestFreeListIsBounded(t *testing.T) {
	var fl freeList
	for i := 1; i <= 2*freeFrameSlots; i++ {
		fl.put(make([]byte, i<<10))
	}
	n, b := fl.size()
	if n != freeFrameSlots {
		t.Fatalf("%d buffers kept, bound is %d", n, freeFrameSlots)
	}
	if got := cap(fl.take(1)); got != (freeFrameSlots+1)<<10 {
		t.Errorf("a 1-byte frame was given a %d-byte buffer; the smallest kept is %d", got, (freeFrameSlots+1)<<10)
	}
	if got := fl.take(2*freeFrameSlots<<10 + 1); len(got) != cap(got) {
		t.Errorf("a frame larger than any kept buffer got a recycled one (len %d, cap %d)", len(got), cap(got))
	}
	if n2, b2 := fl.size(); n2 != n-1 || b2 != b-(freeFrameSlots+1)<<10 {
		t.Errorf("after one take: %d buffers / %d bytes, want %d / %d", n2, b2, n-1, b-(freeFrameSlots+1)<<10)
	}
	fl.put(nil)                             // nothing to keep
	fl.put(make([]byte, freeFrameBytes+1))  // larger than the whole bound: dropped
	fl.put(make([]byte, 1, freeFrameBytes)) // fills it alone, by capacity: everything smaller goes
	if n, b := fl.size(); n != 1 || b != freeFrameBytes {
		t.Errorf("%d buffers / %d bytes kept, want 1 / %d", n, b, freeFrameBytes)
	}

	reg := obs.NewRegistry()
	fl.gauge(reg)
	for _, m := range reg.Snapshot() {
		if m.Name == "router_free_frames_bytes" && m.Value != freeFrameBytes {
			t.Errorf("router_free_frames_bytes = %v, want %d", m.Value, freeFrameBytes)
		}
	}
}

// TestRouterExposesFrameMetrics: the free list's gauge and the frame-read
// histogram are on the router's own /metrics and /statusz.
func TestRouterExposesFrameMetrics(t *testing.T) {
	rt, err := NewRouter(RouterConfig{Replicas: []string{"replica.invalid:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, path := range []string{"/metrics", "/statusz"} {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		for _, name := range []string{"router_free_frames_bytes", "router_frame_read_seconds"} {
			if !strings.Contains(rec.Body.String(), name) {
				t.Errorf("%s does not show %s", path, name)
			}
		}
	}
}
