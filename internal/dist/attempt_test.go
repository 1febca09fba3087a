package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/serve"
)

// reply is one scripted replica answer.
type reply int

const (
	replyOK       reply = iota // 200 with a valid frame
	reply503                   // shed, no Retry-After
	reply503Hint               // shed, Retry-After: 1
	reply500                   // the replica failed the request
	replyDrop                  // transport error: no response at all
	replyCorrupt               // 200 with one payload byte flipped
	replyHang                  // no answer until the attempt is cancelled
	replySlow                  // 200, but only once another replica's answer is back (see scriptedTier.answered)
	replySlowDrop              // a transport error, but only once another replica's answer is back
	replyLate                  // 200 after lateDelay
)

// scriptedTier is an http.RoundTripper that plays three replicas from a
// script, with no socket: each replica answers its calls in script order,
// repeating its last reply once the script runs out, and the tier records
// which replica was asked when.
type scriptedTier struct {
	pos     map[string]int // replica address → place in the key's ring order
	replies [3][]reply     // by ring place
	frame   []byte
	onHang  func() // called as a hanging attempt reaches the transport

	mu       sync.Mutex
	asked    []int // ring places, in the order the router asked them
	inFlight int   // calls inside RoundTrip now
	most     int   // the largest inFlight seen
	answered chan struct{}
	once     sync.Once
}

// slowGrace is how long a slow replica waits after another replica's answer
// left the transport: the few instructions between there and the router's
// request loop, with room to spare on a loaded machine.
const slowGrace = 20 * time.Millisecond

// lateDelay is how long a late replica takes to answer: twice the hedge
// delay of TestAttemptSequences, so a hedge timer left running would fire.
const lateDelay = 100 * time.Millisecond

func (s *scriptedTier) RoundTrip(req *http.Request) (*http.Response, error) {
	p := s.pos[req.URL.Host]
	s.mu.Lock()
	s.asked = append(s.asked, p)
	s.inFlight++
	s.most = max(s.most, s.inFlight)
	r := s.replies[p][0]
	if len(s.replies[p]) > 1 {
		s.replies[p] = s.replies[p][1:]
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inFlight--
		s.mu.Unlock()
	}()

	ctx := req.Context()
	if r != replyHang && r != replySlow && r != replySlowDrop && r != replyLate {
		defer s.once.Do(func() { close(s.answered) })
	}
	resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: req}
	body := s.frame
	switch r {
	case reply503Hint:
		resp.Header.Set("Retry-After", "1")
		fallthrough
	case reply503:
		resp.StatusCode, body = http.StatusServiceUnavailable, []byte("busy\n")
	case reply500:
		resp.StatusCode, body = http.StatusInternalServerError, []byte("boom\n")
	case replyDrop:
		return nil, errors.New("scripted: connection refused")
	case replyCorrupt:
		body = bytes.Clone(body)
		body[len(body)/2] ^= 0xff
	case replyHang:
		if s.onHang != nil {
			s.onHang()
		}
		<-ctx.Done()
		return nil, ctx.Err()
	case replySlow, replySlowDrop:
		select {
		case <-s.answered:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		select {
		case <-time.After(slowGrace):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if r == replySlowDrop {
			return nil, errors.New("scripted: connection reset")
		}
	case replyLate:
		select {
		case <-time.After(lateDelay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	resp.Status = fmt.Sprintf("%d %s", resp.StatusCode, http.StatusText(resp.StatusCode))
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// attemptCounters are the RouterStats counters one request moves.
type attemptCounters struct {
	Routed, Failovers, Hedges, HedgeWins, Retries, Saturated, Errors, CorruptFrames, Revived int64
}

// TestAttemptSequences pins the request loop against scripted replica
// replies, with no socket: for each sequence, which replicas were asked and
// in what order, which one answered after how many attempts, how the request
// failed if it did, what every counter moved by, and that no more than two
// attempts were ever in flight at once. Replicas are named by
// their place in the key's ring order: 0 is the home shard, 1 its successor.
func TestAttemptSequences(t *testing.T) {
	const (
		iso   = 40
		hedge = lateDelay / 2 // far longer than an attempt takes to reach the transport
	)
	errSaturated := errors.New("a *SaturatedError") // the row's error class, matched with errors.As
	// A version 2 frame, as replicas send: one chunk of one triangle.
	batch := &geom.Mesh{Verts: []geom.Vec3{geom.V(1, 2, 3), geom.V(4, 5, 6), geom.V(7, 8, 9)}, Idx: []uint32{0, 1, 2}}
	chunk := make([]byte, meshio.ChunkLen(batch))
	meshio.PutChunk(chunk, batch)
	var sealed bytes.Buffer
	meshio.Seal(iso, chunk).WriteTo(&sealed) //nolint:errcheck // bytes.Buffer
	frame := sealed.Bytes()
	for _, tc := range []struct {
		name       string
		iso        float32 // the request's isovalue (0: iso)
		replies    [3][]reply
		hedgeAfter time.Duration
		deadline   bool  // the caller's context has a one-minute deadline, so a shed request backs off and walks again
		down       []int // ring places marked down before the request
		cancel     bool  // the caller cancels once an attempt hangs
		markedDown []int // ring places down after the request
		asked      []int
		replica    int   // ring place that answered (-1: none)
		attempts   int   // Route.Attempts
		err        error // nil, errSaturated, ErrNoReplicas, errReplicaFailed, serve.ErrIsovalue or context.Canceled
		want       attemptCounters
	}{
		{name: "home OK",
			replies: [3][]reply{{replyOK}, {replyOK}, {replyOK}},
			asked:   []int{0}, replica: 0, attempts: 1,
			want: attemptCounters{Routed: 1}},
		{name: "503 then successor OK",
			replies: [3][]reply{{reply503}, {replyOK}, {replyOK}},
			asked:   []int{0, 1}, replica: 1, attempts: 2,
			want: attemptCounters{Routed: 1, Failovers: 1}},
		{name: "transport error then successor OK",
			replies: [3][]reply{{replyDrop}, {replyOK}, {replyOK}},
			asked:   []int{0, 1}, replica: 1, attempts: 2, markedDown: []int{0},
			want: attemptCounters{Routed: 1, Failovers: 1}},
		{name: "corrupt frame then successor OK",
			replies: [3][]reply{{replyCorrupt}, {replyOK}, {replyOK}},
			asked:   []int{0, 1}, replica: 1, attempts: 2, markedDown: []int{0},
			want: attemptCounters{Routed: 1, Failovers: 1, CorruptFrames: 1}},
		{name: "500 fails the request",
			replies: [3][]reply{{reply500}, {replyOK}, {replyOK}},
			asked:   []int{0}, replica: -1, err: errReplicaFailed,
			want: attemptCounters{Errors: 1}},
		{name: "every replica unreachable",
			replies: [3][]reply{{replyDrop}, {replyDrop}, {replyDrop}},
			asked:   []int{0, 1, 2}, replica: -1, err: ErrNoReplicas, markedDown: []int{0, 1, 2},
			want: attemptCounters{Errors: 1}},
		{name: "known-down home is tried last",
			replies: [3][]reply{{replyOK}, {replyOK}, {replyOK}},
			down:    []int{0},
			asked:   []int{1}, replica: 1, attempts: 1, markedDown: []int{0},
			want: attemptCounters{Routed: 1}},
		{name: "known-down home answers last and revives",
			replies: [3][]reply{{replyOK}, {replyDrop}, {replyDrop}},
			down:    []int{0},
			asked:   []int{1, 2, 0}, replica: 0, attempts: 3, markedDown: []int{1, 2},
			want: attemptCounters{Routed: 1, Failovers: 1, Revived: 1}},
		{name: "home slow, the hedge wins",
			replies:    [3][]reply{{replyHang}, {replyOK}, {replyOK}},
			hedgeAfter: hedge,
			asked:      []int{0, 1}, replica: 1, attempts: 1,
			want: attemptCounters{Routed: 1, Hedges: 1, HedgeWins: 1}},
		{name: "home slow, the hedge fails, then home answers",
			replies:    [3][]reply{{replySlow}, {replyDrop}, {replyOK}},
			hedgeAfter: hedge,
			asked:      []int{0, 1}, replica: 0, attempts: 2, markedDown: []int{1},
			want: attemptCounters{Routed: 1, Failovers: 1, Hedges: 1}},
		{name: "home slow, the hedge sheds, home fails, the walk goes on",
			replies:    [3][]reply{{replySlowDrop}, {reply503}, {replyOK}},
			hedgeAfter: hedge,
			asked:      []int{0, 1, 2}, replica: 2, attempts: 3, markedDown: []int{0},
			want: attemptCounters{Routed: 1, Failovers: 1, Hedges: 1}},
		{name: "home fails fast, the successor is late: no hedge",
			replies:    [3][]reply{{replyDrop}, {replyLate}, {replyOK}},
			hedgeAfter: hedge,
			asked:      []int{0, 1}, replica: 1, attempts: 2, markedDown: []int{0},
			want: attemptCounters{Routed: 1, Failovers: 1}},
		{name: "home fails before the hedge timer",
			replies:    [3][]reply{{replyDrop}, {replyOK}, {replyOK}},
			hedgeAfter: time.Minute,
			asked:      []int{0, 1}, replica: 1, attempts: 2, markedDown: []int{0},
			want: attemptCounters{Routed: 1, Failovers: 1}},
		{name: "all shed with no deadline: one walk",
			replies: [3][]reply{{reply503}, {reply503Hint}, {reply503}},
			asked:   []int{0, 1, 2}, replica: -1, err: errSaturated,
			want: attemptCounters{Saturated: 1}},
		{name: "all shed, then served after one backoff round",
			replies:  [3][]reply{{reply503, replyOK}, {reply503}, {reply503}},
			deadline: true,
			asked:    []int{0, 1, 2, 0}, replica: 0, attempts: 4,
			want: attemptCounters{Routed: 1, Failovers: 1, Retries: 1}},
		{name: "the next backoff round re-reads health",
			replies:  [3][]reply{{reply503}, {replyDrop, replyOK}, {reply503, replyOK}},
			deadline: true,
			asked:    []int{0, 1, 2, 0, 2}, replica: 2, attempts: 5, markedDown: []int{1},
			want: attemptCounters{Routed: 1, Failovers: 1, Retries: 1}},
		{name: "an isovalue no key holds is asked of no replica",
			iso:     float32(math.NaN()),
			replies: [3][]reply{{replyOK}, {replyOK}, {replyOK}},
			asked:   nil, replica: -1, err: serve.ErrIsovalue},
		{name: "an isovalue past 2⁶³ is asked of no replica",
			iso:     -1e20,
			replies: [3][]reply{{replyOK}, {replyOK}, {replyOK}},
			asked:   nil, replica: -1, err: serve.ErrIsovalue},
		{name: "ctx cancelled mid-attempt",
			replies: [3][]reply{{replyHang}, {replyOK}, {replyOK}},
			cancel:  true,
			asked:   []int{0}, replica: -1, err: context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := []string{"r0.invalid:1", "r1.invalid:1", "r2.invalid:1"}
			tier := &scriptedTier{replies: tc.replies, frame: frame, answered: make(chan struct{})}
			rt, err := NewRouter(RouterConfig{
				Replicas:     addrs,
				DownCooldown: time.Minute,
				HedgeAfter:   tc.hedgeAfter,
				Client:       &http.Client{Transport: tier},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			order := rt.Candidates(0, iso)
			tier.pos = map[string]int{}
			for p, ri := range order {
				tier.pos[addrs[ri]] = p
			}
			for _, p := range tc.down {
				rt.health.markDown(order[p])
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.deadline {
				ctx, cancel = context.WithTimeout(ctx, time.Minute)
				defer cancel()
			}
			if tc.cancel {
				tier.onHang = cancel
			}

			qiso := tc.iso
			if qiso == 0 {
				qiso = iso
			}
			got, route, err := rt.QueryBytes(ctx, 0, qiso)

			tier.mu.Lock()
			asked, most := append([]int(nil), tier.asked...), tier.most
			tier.mu.Unlock()
			if fmt.Sprint(asked) != fmt.Sprint(tc.asked) {
				t.Errorf("asked %v, want %v", asked, tc.asked)
			}
			if most > 2 {
				t.Errorf("%d attempts in flight at once, want at most 2", most)
			}
			switch {
			case tc.err == nil && err != nil:
				t.Fatalf("err = %v, want a mesh", err)
			case tc.err == errSaturated:
				var se *SaturatedError
				if !errors.As(err, &se) || se.Attempts != len(tc.asked) || se.RetryAfter != time.Second {
					t.Errorf("err = %#v, want a SaturatedError after %d attempts with the 1s hint", err, len(tc.asked))
				}
			case tc.err != nil && !errors.Is(err, tc.err):
				t.Errorf("err = %v, want %v", err, tc.err)
			}
			if tc.replica >= 0 {
				if !bytes.Equal(got, frame) {
					t.Error("frame differs from the replica's")
				}
				if route.Replica != order[tc.replica] || route.Addr != addrs[order[tc.replica]] || route.Attempts != tc.attempts {
					t.Errorf("route %+v, want ring place %d (replica %d) after %d attempts",
						route, tc.replica, order[tc.replica], tc.attempts)
				}
			} else if route != (Route{}) {
				t.Errorf("route %+v on a failed request, want none", route)
			}
			st := rt.Stats()
			if c := (attemptCounters{st.Routed, st.Failovers, st.Hedges, st.HedgeWins, st.Retries,
				st.Saturated, st.Errors, st.CorruptFrames, st.Revived}); c != tc.want {
				t.Errorf("counters %+v,\n                want %+v", c, tc.want)
			}
			var down []int
			for p, ri := range order {
				if st.Down[ri] {
					down = append(down, p)
				}
			}
			if fmt.Sprint(down) != fmt.Sprint(tc.markedDown) {
				t.Errorf("ring places %v down after the request, want %v", down, tc.markedDown)
			}
		})
	}
}
