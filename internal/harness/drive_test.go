package harness

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goldenStreams are the first 16 isovalues clients 0 and 1 drew for Seed 42
// (64 levels, Zipf 1.1, 10..210) from the four hand-written client loops this
// driver replaced. The chaos gate's victim pick and every recorded experiment
// row assume these streams; a change here is a change of workload.
var goldenStreams = [2][]float32{
	{111.5873, 41.746033, 54.444443, 190.95238, 140.15874, 111.5873, 175.07936, 111.5873,
		111.5873, 25.873016, 25.873016, 203.65079, 105.2381, 92.53968, 25.873016, 70.31746},
	{67.14285, 200.4762, 70.31746, 105.2381, 105.2381, 54.444443, 95.71429, 25.873016,
		175.07936, 105.2381, 70.31746, 89.36508, 111.5873, 92.53968, 136.98413, 29.047619},
}

func TestDriveGoldenRequestStream(t *testing.T) {
	w := ServingWorkload{Seed: 42, ReqPerClient: 16}
	for name, load := range map[string]Load{
		"closed": {Clients: 2},
		"open":   {Clients: 2, QPS: 2000, Duration: time.Minute},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		var got [2][]float32
		w.Drive(ctx, load, func(ctx context.Context, k int, iso float32) error {
			mu.Lock()
			got[k] = append(got[k], iso)
			mine, all := len(got[k]) == 16, len(got[0]) == 16 && len(got[1]) == 16
			mu.Unlock()
			switch {
			case all:
				cancel()
			case mine && load.QPS > 0:
				<-ctx.Done() // leave the remaining ticks to the other client
			}
			return nil
		}, func(time.Duration, error) {})
		cancel()
		for k := range got {
			if !slices.Equal(got[k], goldenStreams[k]) {
				t.Errorf("%s loop, client %d issued\n%v, want\n%v", name, k, got[k], goldenStreams[k])
			}
		}
	}
	if hot := w.withDefaults().levels()[0]; hot != 175.07936 {
		t.Errorf("hottest level (the chaos victim's key) = %v, want 175.07936", hot)
	}
}

func TestOpenLoopLatencyRunsFromTheTick(t *testing.T) {
	ticks := make(chan time.Time, 1)
	ticks <- time.Now().Add(-time.Second) // dispatched a second ago, picked up only now
	close(ticks)
	var lat time.Duration
	ServingWorkload{}.withDefaults().run(context.Background(), 1, ticks,
		func(context.Context, int, float32) error { return nil },
		func(d time.Duration, _ error) { lat = d })
	if lat < time.Second {
		t.Errorf("latency %v excludes the second the request waited for a free client", lat)
	}
}

func TestOpenLoopSaturatedGeneratorDropsTicks(t *testing.T) {
	var served atomic.Int64
	// One client that takes 20 ms per request cannot keep up with 1000 q/s:
	// beyond the 4 ticks of slack, ticks must be dropped, not queued.
	_, dropped := ServingWorkload{}.Drive(context.Background(), Load{Clients: 1, QPS: 1000, Duration: 200 * time.Millisecond},
		func(context.Context, int, float32) error { time.Sleep(20 * time.Millisecond); return nil },
		func(time.Duration, error) { served.Add(1) })
	if dropped == 0 {
		t.Errorf("served %d of ~200 ticks with none reported dropped", served.Load())
	}
	if n := served.Load(); n == 0 || n > 20 {
		t.Errorf("served %d requests; one 20 ms client fits at most ~14 in 200 ms plus slack", n)
	}
}

func TestDriveCancelStopsWithinOneRequest(t *testing.T) {
	for name, load := range map[string]Load{
		"closed": {Clients: 4},
		"open":   {Clients: 4, QPS: 500, Duration: time.Minute},
	} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var started sync.Once
		var late [4]atomic.Int64 // requests a client began after the cancel
		done := make(chan struct{})
		go func() {
			defer close(done)
			ServingWorkload{ReqPerClient: 1 << 20}.Drive(ctx, load,
				func(ctx context.Context, k int, _ float32) error {
					if ctx.Err() != nil {
						late[k].Add(1)
					}
					started.Do(cancel)
					<-ctx.Done()
					return ctx.Err()
				}, func(time.Duration, error) {})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s loop: Drive still running 10 s after cancel", name)
		}
		for k := range late {
			if n := late[k].Load(); n > 1 {
				t.Errorf("%s loop: client %d began %d requests after the cancel, want at most its one buffered tick", name, k, n)
			}
		}
		// Drive waits for its clients and ticker, so nothing of its own may
		// outlive it; allow unrelated runtime goroutines a moment to settle.
		for i := 0; runtime.NumGoroutine() > before+1 && i < 100; i++ {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before+1 {
			t.Errorf("%s loop: %d goroutines before Drive, %d after it returned", name, before, after)
		}
	}
}
