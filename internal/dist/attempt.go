package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/meshio"
	"repro/internal/serve"
)

// QueryBytes routes one query and returns the raw mesh frame — the relay
// path (Handler) and accounting-only callers use it to skip the decode. The
// frame is the caller's; a caller that is done with it may Recycle it.
func (rt *Router) QueryBytes(ctx context.Context, step int, iso float32) ([]byte, Route, error) {
	start := time.Now()
	var (
		attempts int // replica round trips across all rounds
		backoff  = backoffBase
		waited   time.Duration // total saturation backoff slept
	)
	// A saturation budget of zero means one pass and give up; otherwise
	// rounds of pass → backoff continue until the budget (or the caller's
	// deadline, whichever is sooner) runs out.
	var budgetEnd time.Time
	if rt.cfg.SaturationBudget > 0 {
		budgetEnd = start.Add(rt.cfg.SaturationBudget)
		if d, ok := ctx.Deadline(); ok && d.Before(budgetEnd) {
			budgetEnd = d
		}
	}
	for {
		out := rt.pass(ctx, start, rt.candidates(step, iso), step, iso, &attempts)
		if out.err == nil {
			return out.frame, out.route, nil
		}
		if out.final {
			return nil, out.route, out.err
		}
		// Every candidate shed the request. Sleep out the replicas' hint
		// (or our own growing backoff) and try again if budget remains.
		wait := out.hint
		if wait <= 0 {
			wait = backoff
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		wait = rt.jittered(wait)
		// The hint is advisory: when it reaches past the budget, clamp and
		// make one last-chance pass at the deadline's edge instead of
		// abandoning a request we were told to keep trying.
		remaining := time.Until(budgetEnd)
		if budgetEnd.IsZero() || remaining <= 0 {
			rt.saturated.Inc()
			return nil, out.route, &SaturatedError{Attempts: attempts, RetryAfter: out.hint, Waited: waited}
		}
		if wait > remaining {
			wait = remaining
		}
		// Counted on committing to the sleep, not after it: a clamped wait
		// ends at the caller's deadline, where the timer and ctx.Done race.
		rt.retries.Inc()
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, out.route, ctx.Err()
		case <-timer.C:
		}
		waited += wait
	}
}

// jittered spreads a wait over [w/2, 3w/2) so synchronized callers don't
// retry in lockstep against the replica that just shed them.
func (rt *Router) jittered(w time.Duration) time.Duration {
	rt.jmu.Lock()
	f := rt.jitter.Float64()
	rt.jmu.Unlock()
	return w/2 + time.Duration(f*float64(w))
}

// passResult is one full walk over a request's candidate list.
type passResult struct {
	frame []byte
	route Route
	hint  time.Duration // soonest Retry-After among shedding replicas
	err   error
	final bool // err must not be retried (definitive failure or ctx done)
}

// fres is one replica attempt's outcome.
type fres struct {
	ri    int
	frame []byte
	src   string
	hint  time.Duration
	err   error
}

func (rt *Router) pass(ctx context.Context, start time.Time, cands []int, step int, iso float32, attempts *int) passResult {
	var (
		res     passResult
		sawShed bool
		lastErr error
	)
	// classify folds one failed attempt into the pass state; a non-nil
	// return aborts the whole request.
	classify := func(f fres) *passResult {
		lastErr = f.err
		if errors.Is(f.err, serve.ErrSaturated) {
			sawShed = true // busy, not dead: keep it in rotation
			if f.hint > 0 && (res.hint == 0 || f.hint < res.hint) {
				res.hint = f.hint
			}
			return nil
		}
		if errors.Is(f.err, errReplicaFailed) {
			// 4xx/5xx with the replica alive and responding: not routable
			// around, the request itself is at fault.
			rt.errorsC.Inc()
			return &passResult{route: res.route, err: f.err, final: true}
		}
		if err := ctx.Err(); err != nil {
			return &passResult{route: res.route, err: err, final: true}
		}
		rt.health.markDown(f.ri) // transport error, timeout, or corrupt frame: cool it down
		return nil
	}
	serveFrom := func(win fres) passResult {
		rt.routed.Inc()
		rt.served[win.ri].Add(1)
		rt.latency.Observe(time.Since(start))
		if rt.health.revive(win.ri) {
			rt.revived.Inc()
		}
		if *attempts > 1 {
			rt.failovers.Inc()
		}
		return passResult{
			frame: win.frame,
			route: Route{Replica: win.ri, Addr: rt.cfg.Replicas[win.ri], Source: win.src, Attempts: *attempts},
		}
	}

	i := 0
	for i < len(cands) {
		if err := ctx.Err(); err != nil {
			return passResult{err: err, final: true}
		}
		if i == 0 && rt.cfg.HedgeAfter > 0 && len(cands) > 1 {
			win, failed := rt.hedgedFetch(ctx, cands[0], cands[1], step, iso)
			*attempts += len(failed)
			if win != nil {
				*attempts++
			}
			for _, f := range failed {
				if abort := classify(f); abort != nil {
					return *abort
				}
			}
			if win != nil {
				return serveFrom(*win)
			}
			// Every launched attempt failed; skip the candidates we tried.
			i = len(failed)
			continue
		}
		ri := cands[i]
		i++
		*attempts++
		f := rt.fetch(ctx, ri, step, iso)
		if f.err == nil {
			return serveFrom(f)
		}
		if abort := classify(f); abort != nil {
			return *abort
		}
	}
	if sawShed {
		res.err = fmt.Errorf("%w: all %d candidate replicas shed the request", serve.ErrSaturated, *attempts)
		return res
	}
	rt.errorsC.Inc()
	if lastErr != nil {
		return passResult{err: fmt.Errorf("%w: %d attempts, last: %v", ErrNoReplicas, *attempts, lastErr), final: true}
	}
	return passResult{err: ErrNoReplicas, final: true}
}

// hedgedFetch races the home shard against its ring successor: the
// successor launches only if the home has not answered within HedgeAfter,
// and the first success cancels the other attempt. It returns the winner
// (nil if every launched attempt failed) and the failed attempts.
func (rt *Router) hedgedFetch(ctx context.Context, a, b, step int, iso float32) (*fres, []fres) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser once a winner returns
	ch := make(chan fres, 2)
	// A result nobody will pick up still owns a buffer. One that is already
	// in ch when this call returns is recycled here; an attempt that finishes
	// later recycles its own, from its own goroutine, after its last write.
	var (
		mu      sync.Mutex
		settled bool
	)
	defer func() {
		mu.Lock()
		settled = true
		for len(ch) > 0 {
			rt.Recycle((<-ch).frame)
		}
		mu.Unlock()
	}()
	fire := func(ri int) {
		go func() {
			f := rt.fetch(hctx, ri, step, iso)
			mu.Lock()
			defer mu.Unlock()
			if settled {
				rt.Recycle(f.frame)
				return
			}
			ch <- f // never blocks: two slots, two attempts
		}()
	}
	fire(a)
	launched := 1
	timer := time.NewTimer(rt.cfg.HedgeAfter)
	defer timer.Stop()
	var failed []fres
	for done := 0; done < launched; {
		select {
		case f := <-ch:
			done++
			if f.err == nil {
				if f.ri == b {
					rt.hedgeWins.Inc()
				}
				return &f, failed
			}
			failed = append(failed, f)
		case <-timer.C:
			if launched == 1 {
				rt.hedges.Inc()
				fire(b)
				launched = 2
			}
		case <-ctx.Done():
			return nil, failed
		}
	}
	return nil, failed
}

// errReplicaFailed marks a definitive replica-side failure (non-503 error
// status) that failover must not paper over.
var errReplicaFailed = errors.New("dist: replica failed the request")

func (rt *Router) fetch(ctx context.Context, ri, step int, iso float32) fres {
	out := fres{ri: ri}
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	// timedOut distinguishes our per-attempt deadline from the caller's.
	timedOut := func(err error) error {
		if actx.Err() != nil && ctx.Err() == nil {
			rt.timeouts.Inc()
			return fmt.Errorf("attempt timed out after %v: %w", rt.cfg.AttemptTimeout, err)
		}
		return err
	}
	addr := rt.cfg.Replicas[ri]
	req, err := http.NewRequestWithContext(actx, http.MethodGet, MeshURL(addr, step, iso), nil)
	if err != nil {
		out.err = err
		return out
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		out.err = timedOut(err)
		return out
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for keep-alive
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusServiceUnavailable:
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			out.hint = time.Duration(secs) * time.Second
		}
		out.err = fmt.Errorf("%w (replica %s)", serve.ErrSaturated, addr)
		return out
	default:
		out.err = fmt.Errorf("%w: %s from %s", errReplicaFailed, resp.Status, addr)
		return out
	}
	// One pass: the CRC is folded over each chunk as it comes off the socket.
	// buf is this attempt's alone until its frame is served; on any failure
	// it goes back from here, after ReadFrame — its only writer — returned.
	var buf []byte
	readStart := time.Now()
	frame, err := meshio.ReadFrame(resp.Body, meshio.MaxBinaryFrameBytes, true, func(size int) []byte {
		buf = rt.frames.take(size)
		return buf
	})
	malformed := errors.Is(err, meshio.ErrBinaryFormat)
	if err == nil || malformed {
		rt.frameRead.Observe(time.Since(readStart)) // read through to a verdict
	}
	if err != nil {
		rt.Recycle(buf)
		if malformed {
			// Whichever byte was hit — prefix, header or checksum — the
			// replica answered, with the wrong bytes.
			rt.corrupt.Inc()
			out.err = fmt.Errorf("replica %s frame rejected: %w", addr, err)
			return out
		}
		out.err = timedOut(fmt.Errorf("reading frame from %s: %w", addr, err))
		return out
	}
	out.frame, out.src = frame, resp.Header.Get("X-Iso-Source")
	return out
}
