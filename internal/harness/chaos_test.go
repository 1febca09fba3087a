package harness

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestChaosTable runs a reduced chaos experiment end to end and pins the
// acceptance contract: through the router, every request under every fault
// class succeeds with byte-correct frames; the naive client is undamaged only
// where nothing was injected; and every fault plan actually fired.
func TestChaosTable(t *testing.T) {
	w := ServingWorkload{ReqPerClient: 4, Levels: 8}
	ccfg := ChaosConfig{Replicas: 3, Clients: 2, Seed: 7}
	scenarios := []ChaosScenario{
		{Name: "fault-free"},
		{Name: "mixed", Fault: chaos.Fault{
			Latency: 5 * time.Millisecond, DropProb: 0.125, CorruptProb: 0.25,
		}},
	}
	rows, err := ChaosTable(context.Background(), Small(), 2, ccfg, w, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(scenarios) {
		t.Fatalf("%d rows for %d scenarios × 2 modes", len(rows), len(scenarios))
	}
	for _, r := range rows {
		if r.Requests != ccfg.Clients*w.ReqPerClient {
			t.Errorf("%s: %d requests, want %d", r.Scenario, r.Requests, ccfg.Clients*w.ReqPerClient)
		}
		if r.Client == "resilient" && (r.Failed != 0 || r.Mismatched != 0) {
			t.Errorf("resilient %s: %d failed, %d mismatched — resilience must mask every fault",
				r.Scenario, r.Failed, r.Mismatched)
		}
		if r.Client == "naive" && r.Scenario == "fault-free" && (r.Failed != 0 || r.Mismatched != 0) {
			t.Errorf("naive fault-free: %d failed, %d mismatched with no faults injected", r.Failed, r.Mismatched)
		}
		if faulted := r.Scenario != "fault-free"; faulted != (r.Injected > 0) {
			t.Errorf("%s (%s client): %d faults injected", r.Scenario, r.Client, r.Injected)
		}
	}
	var out bytes.Buffer
	WriteTable(&out, rows, "")
	if out.Len() == 0 {
		t.Fatal("WriteTable wrote nothing")
	}
	t.Logf("\n%s", out.String())
}
