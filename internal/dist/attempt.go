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
//
// It is the router's one request loop, and one select drives it. A walk
// goes down the request's candidates with one attempt in flight, moving on
// when that one fails; if the walk's first attempt has not answered within
// HedgeAfter, the second candidate starts beside it and the first success
// wins. When every candidate shed the request, the loop sleeps out the
// replicas' Retry-After hint (or its own growing backoff) and walks again,
// until the caller's deadline; a caller with no deadline gets one walk.
//
// An isovalue no serve.Key holds is refused with serve.ErrIsovalue before
// any replica is asked: no replica could answer it but 400.
func (rt *Router) QueryBytes(ctx context.Context, step int, iso float32) ([]byte, Route, error) {
	if err := serve.CheckIsovalue(iso); err != nil {
		return nil, Route{}, err
	}
	start := time.Now()
	deadline, _ := ctx.Deadline() // zero: no deadline, so one walk and give up

	// Every attempt runs fetch in its own goroutine, and a result nobody will
	// pick up still owns a buffer. One already in results when this call
	// returns is recycled here; an attempt that finishes later (a hedge's
	// loser, or one the caller's cancel cut short) recycles its own, from its
	// own goroutine, after its last write.
	actx, cancel := context.WithCancel(ctx)
	results := make(chan fres, 2) // never blocks: at most two attempts in flight
	var (
		mu       sync.Mutex
		settled  bool
		inFlight int
	)
	defer func() {
		cancel()
		mu.Lock()
		settled = true
		for len(results) > 0 {
			rt.Recycle((<-results).frame)
		}
		mu.Unlock()
	}()
	launch := func(ri int, asHedge bool) {
		inFlight++
		go func() {
			f := rt.fetch(actx, ri, step, iso)
			f.hedge = asHedge
			mu.Lock()
			defer mu.Unlock()
			if settled {
				rt.Recycle(f.frame)
				return
			}
			results <- f
		}()
	}

	var (
		cands    = rt.candidates(step, iso) // this walk's replicas, in order
		next     int                        // index in cands of the walk's next attempt
		attempts int                        // completed round trips, across walks
		shed     bool                       // a candidate of this walk shed the request
		hint     time.Duration              // this walk's soonest Retry-After
		lastErr  error
		backoff  = backoffBase
		waited   time.Duration    // total saturation backoff slept
		hedge    <-chan time.Time // armed while a walk's first attempt is alone
		wake     <-chan time.Time // armed while backing off
	)
	for {
		if inFlight == 0 && wake == nil {
			switch {
			case next < len(cands):
				if err := ctx.Err(); err != nil {
					return nil, Route{}, err
				}
				if next == 0 && rt.cfg.HedgeAfter > 0 && len(cands) > 1 {
					hedge = time.After(rt.cfg.HedgeAfter)
				}
				launch(cands[next], false)
				next++
			case !shed:
				rt.errorsC.Inc()
				if lastErr != nil {
					return nil, Route{}, fmt.Errorf("%w: %d attempts, last: %v", ErrNoReplicas, attempts, lastErr)
				}
				return nil, Route{}, ErrNoReplicas
			default:
				// Every candidate shed the request. Sleep out the replicas'
				// hint (or our own growing backoff) and walk again if the
				// caller's deadline allows.
				wait := hint
				if wait <= 0 {
					wait = backoff
					backoff = min(2*backoff, time.Second)
				}
				wait = rt.jittered(wait)
				// The hint is advisory: when it reaches past the deadline, the
				// wait is clamped to it rather than the request abandoned
				// early.
				remaining := time.Until(deadline)
				if deadline.IsZero() || remaining <= 0 {
					rt.saturated.Inc()
					return nil, Route{}, &SaturatedError{Attempts: attempts, RetryAfter: hint, Waited: waited}
				}
				wait = min(wait, remaining)
				// Counted on committing to the sleep, not after it: a clamped
				// wait ends at the caller's deadline, where wake and ctx.Done
				// race.
				rt.retries.Inc()
				wake = time.After(wait)
				waited += wait
			}
		}
		select {
		case f := <-results:
			inFlight--
			hedge = nil // the walk's first attempt is back: no hedge now
			attempts++
			if f.err == nil {
				if f.hedge {
					rt.hedgeWins.Inc()
				}
				rt.routed.Inc()
				rt.served[f.ri].Add(1)
				rt.latency.Observe(time.Since(start))
				if rt.health.revive(f.ri) {
					rt.revived.Inc()
				}
				if attempts > 1 {
					rt.failovers.Inc()
				}
				return f.frame, Route{Replica: f.ri, Addr: rt.cfg.Replicas[f.ri], Source: f.src, Attempts: attempts}, nil
			}
			lastErr = f.err
			switch {
			case errors.Is(f.err, serve.ErrSaturated):
				shed = true // busy, not dead: keep it in rotation
				if f.hint > 0 && (hint == 0 || f.hint < hint) {
					hint = f.hint
				}
			case errors.Is(f.err, errReplicaFailed):
				// 4xx/5xx with the replica alive and responding: not routable
				// around, the request itself is at fault.
				rt.errorsC.Inc()
				return nil, Route{}, f.err
			case ctx.Err() != nil:
				return nil, Route{}, ctx.Err()
			default:
				rt.health.markDown(f.ri) // transport error, timeout, or corrupt frame: cool it down
			}
		case <-hedge:
			hedge = nil
			rt.hedges.Inc()
			launch(cands[next], true)
			next++
		case <-wake:
			wake = nil
			cands, next, shed, hint = rt.candidates(step, iso), 0, false, 0
		case <-ctx.Done():
			return nil, Route{}, ctx.Err()
		}
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

// fres is one replica attempt's outcome.
type fres struct {
	ri    int
	frame []byte
	src   string
	hint  time.Duration
	err   error
	hedge bool // the attempt was a hedge, launched beside a slow first one
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
