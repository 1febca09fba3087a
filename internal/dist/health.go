package dist

import (
	"sync/atomic"
	"time"
)

// health is the router's view of which replicas are in rotation, kept from
// the outcomes of its own requests: a failed attempt marks a replica down;
// requests skip it while its cooldown runs and try it again once that has
// elapsed — a success then revives it, a failure re-stamps the clock.
type health struct {
	cooldown time.Duration
	downAt   []atomic.Int64 // unix nanos of the last markDown; 0 = up
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
// the clock and with concurrent requests, and a second look could list a
// replica twice or not at all.
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
