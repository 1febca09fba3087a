package harness

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/serve"
)

// TestScalingLinkModel pins the scaling table's link columns to the value
// predicted without the tier: each client's request stream from Drive, each
// request's home from a router's ring (index-based, so placeholder addresses
// map keys as the cluster does), and each level's frame length from a plain
// server. Nothing is shed, so nothing fails over, and the columns are
// identical from run to run.
func TestScalingLinkModel(t *testing.T) {
	ctx := context.Background()
	w := ServingWorkload{ReqPerClient: 8, Levels: 16}.withDefaults()
	const clients, procs = 4, 4
	replicas := []int{1, 2}
	run := func() []ScalingRow {
		rows, err := ScalingTable(ctx, Small(), procs, replicas, clients, w)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	rows, again := run(), run()
	for i, r := range rows {
		if r.Failovers != 0 || again[i].Failovers != 0 {
			t.Errorf("%d replicas: %d and %d failovers, want 0", r.Replicas, r.Failovers, again[i].Failovers)
		}
		if math.Float64bits(r.LinkQPS) != math.Float64bits(again[i].LinkQPS) {
			t.Errorf("%d replicas: link q/s %v then %v", r.Replicas, r.LinkQPS, again[i].LinkQPS)
		}
	}
	if rows[0].LinkSpeedup != 1 {
		t.Errorf("1 replica: link speedup %v, want 1", rows[0].LinkSpeedup)
	}

	eng, err := Engine(Small(), procs)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(eng, serve.Config{})
	frameLen := make(map[float32]int64)
	for _, iso := range w.levels() {
		resp, err := srv.QueryFrame(ctx, 0, iso)
		if err != nil {
			t.Fatal(err)
		}
		frameLen[iso] = int64(resp.Frame().Len())
	}
	for i, n := range replicas {
		addrs := make([]string, n)
		for k := range addrs {
			addrs[k] = fmt.Sprintf("replica-%d.invalid:80", k)
		}
		rt, err := dist.NewRouter(dist.RouterConfig{Replicas: addrs})
		if err != nil {
			t.Fatal(err)
		}
		sent := make([]int64, n)
		var mu sync.Mutex
		w.Drive(ctx, Load{Clients: clients},
			func(_ context.Context, _ int, iso float32) error {
				mu.Lock()
				defer mu.Unlock()
				sent[rt.HomeReplica(0, iso)] += frameLen[iso]
				return nil
			},
			func(time.Duration, error) {})
		rt.Close()
		want := float64(clients*w.ReqPerClient) / (float64(slices.Max(sent)) / 25e6)
		if rows[i].LinkQPS != want {
			t.Errorf("%d replicas: link q/s %v, predicted %v (bytes per replica %v)", n, rows[i].LinkQPS, want, sent)
		}
	}
}
