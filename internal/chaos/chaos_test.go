package chaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/meshio"
)

// frameServer serves one checksummed mesh frame, the payload the tier ships.
func frameServer(t *testing.T) (*httptest.Server, []byte) {
	t.Helper()
	mesh := &geom.Mesh{}
	mesh.Append(
		geom.Triangle{A: geom.V(1, 2, 3), B: geom.V(4, 5, 6), C: geom.V(7, 8, 9)},
		geom.Triangle{A: geom.V(9, 8, 7), B: geom.V(6, 5, 4), C: geom.V(3, 2, 1)},
	)
	frame := meshio.AppendBinaryChecksum(nil, 42, mesh)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", itoa(len(frame)))
		w.Write(frame) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv, frame
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func get(t *testing.T, client *http.Client, url string) ([]byte, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func faultedClient(srv *httptest.Server, f Fault, seed uint64) (*http.Client, *Injector) {
	in := NewInjector(seed)
	in.SetFault(strings.TrimPrefix(srv.URL, "http://"), f)
	return &http.Client{Transport: in.Transport(nil)}, in
}

func TestTransportPassThrough(t *testing.T) {
	srv, frame := frameServer(t)
	client, in := faultedClient(srv, Fault{}, 1) // zero fault = cleared target
	got, err := get(t, client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(frame) {
		t.Fatal("pass-through modified the body")
	}
	if in.Stats() != (Stats{}) {
		t.Fatalf("pass-through recorded faults: %+v", in.Stats())
	}
}

func TestTransportDrop(t *testing.T) {
	srv, _ := frameServer(t)
	client, in := faultedClient(srv, Fault{DropProb: 1}, 2)
	if _, err := get(t, client, srv.URL); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if in.Stats().Dropped != 1 {
		t.Fatalf("stats: %+v", in.Stats())
	}
	// Other hosts are untouched.
	other, frame2 := frameServer(t)
	if got, err := get(t, client, other.URL); err != nil || string(got) != string(frame2) {
		t.Fatalf("unfaulted host affected: %v", err)
	}
}

func TestTransportBlackholeRespectsContext(t *testing.T) {
	srv, _ := frameServer(t)
	client, in := faultedClient(srv, Fault{BlackholeProb: 1}, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("blackhole outlived its context: %v", d)
	}
	if in.Stats().Blackhole != 1 {
		t.Fatalf("stats: %+v", in.Stats())
	}
}

func TestTransportTruncateBreaksFrameRead(t *testing.T) {
	srv, frame := frameServer(t)
	client, in := faultedClient(srv, Fault{TruncateProb: 1}, 4)
	got, err := get(t, client, srv.URL)
	if err == nil && len(got) >= len(frame) {
		t.Fatal("truncation delivered the whole body")
	}
	if in.Stats().Truncated != 1 {
		t.Fatalf("stats: %+v", in.Stats())
	}
}

func TestTransportCorruptIsCaughtByChecksum(t *testing.T) {
	srv, frame := frameServer(t)
	client, in := faultedClient(srv, Fault{CorruptProb: 1}, 5)
	got, err := get(t, client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(frame) {
		t.Fatal("corruption changed nothing")
	}
	if err := meshio.VerifyBinary(got); !errors.Is(err, meshio.ErrBinaryFormat) {
		t.Fatalf("corrupted frame passed verification: %v", err)
	}
	if in.Stats().Corrupted != 1 {
		t.Fatalf("stats: %+v", in.Stats())
	}
}

func TestTransportLatency(t *testing.T) {
	srv, _ := frameServer(t)
	client, in := faultedClient(srv, Fault{Latency: 80 * time.Millisecond}, 6)
	start := time.Now()
	if _, err := get(t, client, srv.URL); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Fatalf("request finished in %v, injected latency is 80ms", d)
	}
	if in.Stats().Delayed != 1 {
		t.Fatalf("stats: %+v", in.Stats())
	}
}

func TestFaultWindow(t *testing.T) {
	in := NewInjector(7)
	in.SetFault("x", Fault{DropProb: 1, After: time.Hour})
	if v := in.decide("x"); v.drop {
		t.Fatal("fault fired before its window opened")
	}
	in.SetFault("x", Fault{DropProb: 1, Until: time.Nanosecond})
	time.Sleep(time.Millisecond)
	if v := in.decide("x"); v.drop {
		t.Fatal("fault fired after its window closed")
	}
	in.SetFault("x", Fault{DropProb: 1})
	if v := in.decide("x"); !v.drop {
		t.Fatal("always-on fault did not fire")
	}
}

// TestDeterministicDecisions pins the seeded stream: the same seed and call
// sequence draw the same verdicts.
func TestDeterministicDecisions(t *testing.T) {
	run := func(seed uint64) []verdict {
		in := NewInjector(seed)
		in.SetFault("x", Fault{DropProb: 0.3, BlackholeProb: 0.1, TruncateProb: 0.2, CorruptProb: 0.2, Jitter: time.Millisecond})
		out := make([]verdict, 256)
		for i := range out {
			out[i] = in.decide("x")
		}
		return out
	}
	a, b := run(99), run(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged under the same seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	diff := 0
	for i, v := range run(100) {
		if v != a[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds drew identical decision streams")
	}
}

func TestParseFaultRoundTrip(t *testing.T) {
	spec := "latency=20ms,jitter=10ms,drop=0.125,blackhole=0.05,truncate=0.1,corrupt=0.25,after=1s,until=5s"
	f, err := ParseFault(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := Fault{
		Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond,
		DropProb: 0.125, BlackholeProb: 0.05, TruncateProb: 0.1, CorruptProb: 0.25,
		After: time.Second, Until: 5 * time.Second,
	}
	if f != want {
		t.Fatalf("parsed %+v, want %+v", f, want)
	}
	if f.String() != spec {
		t.Fatalf("String() = %q, want %q", f.String(), spec)
	}
	if f2, err := ParseFault(f.String()); err != nil || f2 != f {
		t.Fatalf("re-parse: %+v, %v", f2, err)
	}
	for _, spec := range []string{"", Fault{}.String()} {
		if empty, err := ParseFault(spec); err != nil || empty != (Fault{}) {
			t.Fatalf("ParseFault(%q) = %+v, %v; want the zero Fault", spec, empty, err)
		}
	}
	for _, bad := range badFaultSpecs {
		if f, err := ParseFault(bad); !errors.Is(err, ErrBadFault) {
			t.Errorf("ParseFault(%q) = %+v, %v; want ErrBadFault", bad, f, err)
		}
	}
}

// badFaultSpecs are specs ParseFault must reject: malformed terms, an unknown
// key, a value with trailing junk, and probabilities and durations outside
// their range.
var badFaultSpecs = []string{"latency", "nope=1", "drop=x", "drop=0.5x", "drop=2", "drop=-1", "drop=NaN", "latency=-1s"}

// FuzzParseFault holds the -chaos flag's parser to a round trip: whatever it
// accepts prints as a spec that parses back to the same Fault.
func FuzzParseFault(f *testing.F) {
	for _, spec := range append(badFaultSpecs, "none", "latency=20ms,jitter=10ms,drop=0.125,blackhole=0.05,truncate=0.1,corrupt=0.25,after=1s,until=5s") {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fault, err := ParseFault(spec)
		if err != nil {
			if !errors.Is(err, ErrBadFault) {
				t.Fatalf("ParseFault(%q): untyped error %v", spec, err)
			}
			return
		}
		again, err := ParseFault(fault.String())
		if err != nil || again != fault {
			t.Fatalf("ParseFault(%q) = %+v, prints as %q, which parses to %+v, %v", spec, fault, fault.String(), again, err)
		}
	})
}
