package harness

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------------
// The load driver: one synthetic client population behind every serving-tier
// experiment (serving, scaling, chaos) and cmd/isoserve.

// ServingWorkload fixes the synthetic client population: clients drawing
// isovalues from a Zipf distribution over a fixed set of levels — the
// "popular isosurface" traffic a public query service sees.
type ServingWorkload struct {
	ReqPerClient int     // closed-loop requests each client issues (0 = 32)
	Levels       int     // distinct isovalue levels (0 = 64)
	ZipfS        float64 // Zipf skew parameter (0 = 1.1)
	IsoMin       float32 // level range (both 0 = the paper's 10..210)
	IsoMax       float32
	Seed         int64 // base RNG seed (client k uses Seed+k)
}

func (w ServingWorkload) withDefaults() ServingWorkload {
	if w.ReqPerClient <= 0 {
		w.ReqPerClient = 32
	}
	if w.Levels < 2 {
		w.Levels = 64 // levels needs ≥ 2 to span a range
	}
	if w.ZipfS <= 1 {
		w.ZipfS = 1.1 // rand.NewZipf requires s > 1 (returns nil otherwise)
	}
	if w.IsoMin == 0 && w.IsoMax == 0 {
		w.IsoMin, w.IsoMax = 10, 210
	}
	return w
}

// levels returns the workload's isovalues indexed by Zipf popularity rank
// (0 = hottest). Ranks are scattered across the level range with a fixed
// permutation (rand.Perm of Levels seeded with Seed) so popularity is not
// correlated with surface size. w must have its defaults applied.
func (w ServingWorkload) levels() []float32 {
	isos := make([]float32, w.Levels)
	for rank, lv := range rand.New(rand.NewSource(w.Seed)).Perm(w.Levels) {
		isos[rank] = w.IsoMin + (w.IsoMax-w.IsoMin)*float32(lv)/float32(w.Levels-1)
	}
	return isos
}

// Load sizes one Drive run. With QPS == 0 the loop is closed: every client
// runs flat out — issue, wait, issue again — for ReqPerClient requests. With
// QPS > 0 it is open: requests are dispatched at that fixed rate for Duration
// regardless of completion, the arrival process of independent clients.
type Load struct {
	Clients  int
	QPS      float64
	Duration time.Duration
}

// Drive runs load.Clients synthetic clients, each drawing its own seeded Zipf
// stream over the workload's levels. The caller supplies query — what to do
// with one isovalue, told which client asks — and record — what to do with
// that request's (latency, error); both are called concurrently from the
// client goroutines. Closed-loop latency runs from just before query;
// open-loop latency runs from the intended dispatch time, so queueing delay is
// included, and a tick that finds every client busy is dropped and counted:
// the generator itself saturated. Cancelling ctx stops each client after its
// in-flight request. Drive returns the run's wall time and the dropped ticks,
// leaving no goroutine behind.
func (w ServingWorkload) Drive(ctx context.Context, load Load,
	query func(ctx context.Context, client int, iso float32) error,
	record func(lat time.Duration, err error)) (wall time.Duration, droppedTicks int64) {
	w = w.withDefaults()
	var (
		ticks   chan time.Time // nil = closed loop
		dropped atomic.Int64
		ticker  sync.WaitGroup
	)
	if load.QPS > 0 {
		// A few ticks of slack per client absorb dispatch jitter without
		// letting an overloaded generator queue unboundedly.
		ticks = make(chan time.Time, 4*load.Clients)
		ticker.Add(1)
		go func() {
			defer ticker.Done()
			defer close(ticks)
			tk := time.NewTicker(time.Duration(float64(time.Second) / load.QPS))
			defer tk.Stop()
			deadline := time.Now().Add(load.Duration)
			for {
				select {
				case now := <-tk.C:
					if now.After(deadline) {
						return
					}
					select {
					case ticks <- now:
					default:
						dropped.Add(1)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	wall = w.run(ctx, load.Clients, ticks, query, record)
	ticker.Wait()
	return wall, dropped.Load()
}

// run is the one worker body: client k issues a request per closed-loop turn
// (ticks == nil) or per dispatch tick, until its requests, the ticks, or ctx
// run out.
func (w ServingWorkload) run(ctx context.Context, clients int, ticks <-chan time.Time,
	query func(ctx context.Context, client int, iso float32) error,
	record func(lat time.Duration, err error)) time.Duration {
	levels := w.levels()
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			zipf := rand.NewZipf(rand.New(rand.NewSource(w.Seed+int64(k))), w.ZipfS, 1, uint64(w.Levels-1))
			issue := func(from time.Time) {
				err := query(ctx, k, levels[zipf.Uint64()])
				record(time.Since(from), err)
			}
			if ticks == nil {
				for i := 0; i < w.ReqPerClient && ctx.Err() == nil; i++ {
					issue(time.Now())
				}
				return
			}
			for dispatched := range ticks {
				issue(dispatched)
				if ctx.Err() != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
