package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// its id; Parent is the index of the span that caused this one, -1 for a
// request's root. Times are nanoseconds since the recorder was made.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// recorder keeps the traced pass's spans in memory until the pass ends. The
// spans are the benchmark's own, taken around its calls into each layer; the
// staged replay runs on one goroutine, so the recorder needs no lock.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent, request int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Request: request, Start: int64(time.Since(r.origin))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.origin)) }

// add records a span that ended just now and lasted d, for layers that
// report a duration instead of bracketing a call.
func (r *recorder) add(name string, parent, request int, d time.Duration) {
	end := int64(time.Since(r.origin))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Request: request, Start: end - int64(d), End: end})
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's duration minus its children's.
func (r *recorder) selfTimes() []int64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// perRequest sums, for every request that has a span called name, the self
// time of those spans, in milliseconds and in request order.
func (r *recorder) perRequest(name string) []float64 {
	self := r.selfTimes()
	byReq := map[int]float64{}
	var order []int
	for i, s := range r.spans {
		if s.Name != name {
			continue
		}
		if _, seen := byReq[s.Request]; !seen {
			order = append(order, s.Request)
		}
		byReq[s.Request] += float64(self[i]) / 1e6
	}
	out := make([]float64, len(order))
	for i, req := range order {
		out[i] = byReq[req]
	}
	return out
}

// traceFile is what a traced pass writes next to its metrics.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Settings settings `json:"settings"`
	Spans    []span   `json:"spans"`
}

func (r *recorder) write(path string, tf traceFile) error {
	tf.Spans = r.spans
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
