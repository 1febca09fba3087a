package dist

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// health is the router's view of which replicas are in rotation. A failed
// attempt or probe marks a replica down; requests skip it while its cooldown
// runs and try it again once that has elapsed — a success then revives it, a
// failure re-stamps the clock; a passing probe revives it at once.
type health struct {
	cooldown time.Duration
	downAt   []atomic.Int64 // unix nanos of the last markDown; 0 = up

	stopProbe context.CancelFunc // nil while no probe loop runs
	probeDone chan struct{}
}

func newHealth(replicas int, cooldown time.Duration) *health {
	return &health{cooldown: cooldown, downAt: make([]atomic.Int64, replicas)}
}

// markDown takes a replica out of rotation and stamps the cooldown clock.
func (h *health) markDown(ri int) {
	h.downAt[ri].Store(time.Now().UnixNano())
}

// revive puts a replica back in rotation and reports whether it had been
// marked down.
func (h *health) revive(ri int) bool {
	return h.downAt[ri].Swap(0) != 0
}

// isDown reports whether a replica should be skipped: marked down and still
// inside the cooldown. Once the cooldown elapses requests retry it — a
// success flips it back up (Revived), a failure re-stamps the clock.
func (h *health) isDown(ri int) bool {
	at := h.downAt[ri].Load()
	return at != 0 && time.Since(time.Unix(0, at)) < h.cooldown
}

// up counts the replicas requests are not skipping.
func (h *health) up() int {
	n := 0
	for ri := range h.downAt {
		if !h.isDown(ri) {
			n++
		}
	}
	return n
}

// healthyFirst reorders one request's replicas: healthy first, in the order
// given; known-down ones after, so a stale all-down health view degrades to
// trying, not failing. Each replica's health is read once: isDown moves with
// the clock and the probe loop, and a second look could list a replica twice
// or not at all.
func (h *health) healthyFirst(order []int) []int {
	cands := make([]int, 0, len(order))
	var down []int
	for _, ri := range order {
		if h.isDown(ri) {
			down = append(down, ri)
		} else {
			cands = append(cands, ri)
		}
	}
	return append(cands, down...)
}

// startProbes runs probe against every replica each interval, in the
// background, until stopProbes: a passing probe revives, a failing one marks
// down.
func (h *health) startProbes(interval time.Duration, probe func(ctx context.Context, ri int) bool) {
	ctx, cancel := context.WithCancel(context.Background())
	h.stopProbe = cancel
	h.probeDone = make(chan struct{})
	go h.probeLoop(ctx, interval, probe)
}

// stopProbes returns once the probe loop, if one was started, has exited.
func (h *health) stopProbes() {
	if h.stopProbe != nil {
		h.stopProbe()
		<-h.probeDone
	}
}

func (h *health) probeLoop(ctx context.Context, interval time.Duration, probe func(ctx context.Context, ri int) bool) {
	defer close(h.probeDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		var wg sync.WaitGroup
		for i := range h.downAt {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if probe(ctx, i) {
					h.revive(i)
				} else {
					h.markDown(i)
				}
			}(i)
		}
		wg.Wait()
	}
}

// probe is the router's health check of one replica: GET /healthz answers 200.
func (rt *Router) probe(ctx context.Context, i int) bool {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, "http://"+rt.cfg.Replicas[i]+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64)) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
