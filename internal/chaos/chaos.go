// Package chaos is the seeded fault-injection layer of the distributed
// serving tier: it perturbs the tier's network exchanges — added latency,
// dropped connections, blackholes, truncated responses, corrupted frame
// bytes — so the resilience features in internal/dist (per-attempt timeouts,
// Retry-After backoff, hedged requests, checksum verify-and-retry, passive
// replica revival) can be exercised systematically instead of waiting for
// production to misbehave (cf. Basiri et al., "Chaos Engineering").
//
// Faults are configured per target (a replica's host:port) with
// probabilities and an optional time window, and every probabilistic
// decision is drawn from a SplitMix64 stream seeded by the caller: two runs
// with the same seed and the same request sequence make the same decisions.
// Under concurrency the interleaving of draws varies, so determinism is
// statistical rather than bitwise — the same fault rates, not the same
// victims — which is what a repeatable experiment table needs.
//
// One injection point: Transport wraps an http.RoundTripper (the router's
// client), so faults are applied per request, on the path to the faulted
// target only. Disk faults are injected below it, by blockio.FaultDevice.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// ErrInjected marks every failure the injector fabricates, so tests and
// accounting can tell injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// Fault describes how exchanges with one target misbehave. Probabilities are
// in [0, 1] and are evaluated in the order the fields are declared: one
// exchange suffers at most one terminal fault (drop, blackhole, truncate or
// corrupt), but latency is added independently before it.
type Fault struct {
	// Latency is added to every affected exchange; Jitter adds a uniform
	// [0, Jitter) on top. The sleep respects the request context.
	Latency time.Duration
	Jitter  time.Duration

	// DropProb fails the exchange outright with a connection-reset-shaped
	// error — the TCP RST / dead-peer case the router marks replicas down on.
	DropProb float64

	// BlackholeProb accepts the exchange and then never answers: the call
	// blocks until its context fires. Only a per-attempt timeout (or the
	// caller's deadline) gets out — exactly the failure mode it exists to
	// exercise.
	BlackholeProb float64

	// TruncateProb cuts the response body short (roughly in half), so frame
	// reads fail with an unexpected EOF mid-payload.
	TruncateProb float64

	// CorruptProb flips one byte of the response body — the corruption the
	// meshio checksum trailer exists to catch.
	CorruptProb float64

	// After/Until bound the fault to a time window measured from the
	// injector's creation: inactive before After, inactive again once Until
	// elapses (Until 0 = no end). A window makes transient outages — the
	// revival scenarios — expressible.
	After time.Duration
	Until time.Duration
}

func (f Fault) active(elapsed time.Duration) bool {
	if elapsed < f.After {
		return false
	}
	if f.Until > 0 && elapsed >= f.Until {
		return false
	}
	return true
}

// Stats counts the faults an injector has actually inflicted.
type Stats struct {
	Delayed   int64
	Dropped   int64
	Blackhole int64
	Truncated int64
	Corrupted int64
}

// Total is the number of faults inflicted (an exchange that was delayed and
// then cut short suffered two).
func (s Stats) Total() int64 {
	return s.Delayed + s.Dropped + s.Blackhole + s.Truncated + s.Corrupted
}

// Injector holds the fault plan and the seeded decision stream. One injector
// serves any number of Transports; they share its plan and its stream.
type Injector struct {
	mu     sync.Mutex
	rng    *rng.SplitMix64
	faults map[string]Fault
	start  time.Time
	stats  Stats
}

// NewInjector returns an injector whose probabilistic decisions are drawn
// from a SplitMix64 stream seeded with seed. The time-window clock starts
// now.
func NewInjector(seed uint64) *Injector {
	return &Injector{rng: rng.New(seed), faults: map[string]Fault{}, start: time.Now()}
}

// SetFault installs (or replaces) the fault plan for a target, keyed the way
// requests will name it: the host:port of a replica. Installing a zero Fault
// clears the target.
func (in *Injector) SetFault(target string, f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if f == (Fault{}) {
		delete(in.faults, target)
		return
	}
	in.faults[target] = f
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// verdict is one drawn decision: what a single exchange will suffer.
type verdict struct {
	delay                              time.Duration
	drop, blackhole, truncate, corrupt bool
}

// decide draws one exchange's fate for a target under the injector's lock,
// so the decision stream is a single seeded sequence.
func (in *Injector) decide(target string) verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	f, ok := in.faults[target]
	if !ok || !f.active(time.Since(in.start)) {
		return verdict{}
	}
	var v verdict
	v.delay = f.Latency
	if f.Jitter > 0 {
		v.delay += time.Duration(in.rng.Float64() * float64(f.Jitter))
	}
	if v.delay > 0 {
		in.stats.Delayed++
	}
	switch p := in.rng.Float64(); {
	case p < f.DropProb:
		v.drop = true
		in.stats.Dropped++
	case p < f.DropProb+f.BlackholeProb:
		v.blackhole = true
		in.stats.Blackhole++
	case p < f.DropProb+f.BlackholeProb+f.TruncateProb:
		v.truncate = true
		in.stats.Truncated++
	case p < f.DropProb+f.BlackholeProb+f.TruncateProb+f.CorruptProb:
		v.corrupt = true
		in.stats.Corrupted++
	}
	return v
}

// corruptOffset picks which body byte a corruption flips.
func (in *Injector) corruptOffset(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n <= 0 {
		return 0
	}
	return in.rng.Intn(n)
}

// Transport wraps inner (nil = http.DefaultTransport) so that requests to
// faulted targets misbehave per the plan. Responses from healthy targets and
// un-faulted paths pass through untouched.
func (in *Injector) Transport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &transport{in: in, inner: inner}
}

type transport struct {
	in    *Injector
	inner http.RoundTripper
}

// CloseIdleConnections forwards to the wrapped round tripper, so that
// http.Client.CloseIdleConnections reaches the connection pool under the
// injector.
func (t *transport) CloseIdleConnections() {
	if c, ok := t.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	v := t.in.decide(req.URL.Host)
	ctx := req.Context()
	if v.delay > 0 {
		select {
		case <-time.After(v.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	switch {
	case v.drop:
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: fmt.Errorf("%w: connection dropped", ErrInjected)}
	case v.blackhole:
		<-ctx.Done()
		return nil, ctx.Err()
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil || resp.Body == nil {
		return resp, err
	}
	switch {
	case v.truncate:
		resp.Body = &truncateBody{inner: resp.Body, remaining: truncatedLen(resp.ContentLength)}
		// The Content-Length header still promises the full body, so the
		// client's read fails with an unexpected EOF — a cut connection,
		// not a shorter-but-valid response.
	case v.corrupt:
		resp.Body = &corruptBody{inner: resp.Body, in: t.in}
	}
	return resp, nil
}

// truncatedLen halves a known content length; unknown lengths get a fixed
// small budget so the cut still lands mid-frame for any realistic mesh.
func truncatedLen(contentLength int64) int64 {
	if contentLength > 1 {
		return contentLength / 2
	}
	return 64
}

// truncateBody passes through the first remaining bytes, then cuts the
// connection: an unexpected EOF, as a mid-transfer peer death produces.
type truncateBody struct {
	inner     io.ReadCloser
	remaining int64
}

func (b *truncateBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= int64(n)
	return n, err
}

func (b *truncateBody) Close() error { return b.inner.Close() }

// corruptBody flips one byte of the first read chunk — enough to break a
// checksum while keeping the HTTP exchange well-formed.
type corruptBody struct {
	inner io.ReadCloser
	in    *Injector
	done  bool
}

func (b *corruptBody) Read(p []byte) (int, error) {
	n, err := b.inner.Read(p)
	// Flip one byte past the first four: a mangled length prefix turns the
	// exchange into a short or overlong read, which is TruncateProb's fault
	// class — corruption means the frame arrives whole with wrong bytes.
	if n > 4 && !b.done {
		b.done = true
		p[4+b.in.corruptOffset(n-4)] ^= 0x55
	}
	return n, err
}

func (b *corruptBody) Close() error { return b.inner.Close() }

// ErrBadFault is what ParseFault's errors wrap.
var ErrBadFault = errors.New("chaos: bad fault spec")

// ParseFault parses a compact fault spec of comma-separated key=value
// pairs — the CLI surface (isoserve -chaos):
//
//	latency=20ms,jitter=10ms,drop=0.125,blackhole=0.05,truncate=0.1,corrupt=0.25,after=1s,until=5s
//
// Each value is parsed whole: a probability must lie in [0, 1], a duration
// must not be negative. Unknown keys error; omitted keys stay zero; "" and
// "none" (what a zero Fault prints as) are the zero Fault.
func ParseFault(spec string) (Fault, error) {
	var f Fault
	if s := strings.TrimSpace(spec); s == "" || s == "none" {
		return f, nil
	}
	durations := map[string]*time.Duration{"latency": &f.Latency, "jitter": &f.Jitter, "after": &f.After, "until": &f.Until}
	probs := map[string]*float64{"drop": &f.DropProb, "blackhole": &f.BlackholeProb, "truncate": &f.TruncateProb, "corrupt": &f.CorruptProb}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Fault{}, fmt.Errorf("%w: term %q is not key=value", ErrBadFault, part)
		}
		var err error
		if d, ok := durations[k]; ok {
			if *d, err = time.ParseDuration(v); err != nil || *d < 0 {
				return Fault{}, fmt.Errorf("%w: %s=%s is not a duration ≥ 0", ErrBadFault, k, v)
			}
		} else if p, ok := probs[k]; ok {
			// The negated test rejects NaN, which every comparison fails.
			if *p, err = strconv.ParseFloat(v, 64); err != nil || !(*p >= 0 && *p <= 1) {
				return Fault{}, fmt.Errorf("%w: %s=%s is not a probability in [0, 1]", ErrBadFault, k, v)
			}
		} else {
			return Fault{}, fmt.Errorf("%w: unknown key %q", ErrBadFault, k)
		}
	}
	return f, nil
}

// String renders the fault in ParseFault's syntax.
func (f Fault) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if f.Latency > 0 {
		add("latency", f.Latency.String())
	}
	if f.Jitter > 0 {
		add("jitter", f.Jitter.String())
	}
	if f.DropProb > 0 {
		add("drop", fmt.Sprintf("%g", f.DropProb))
	}
	if f.BlackholeProb > 0 {
		add("blackhole", fmt.Sprintf("%g", f.BlackholeProb))
	}
	if f.TruncateProb > 0 {
		add("truncate", fmt.Sprintf("%g", f.TruncateProb))
	}
	if f.CorruptProb > 0 {
		add("corrupt", fmt.Sprintf("%g", f.CorruptProb))
	}
	if f.After > 0 {
		add("after", f.After.String())
	}
	if f.Until > 0 {
		add("until", f.Until.String())
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}
