package harness

import (
	"bytes"
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func titles(exps []Experiment) []string {
	var ts []string
	for _, e := range exps {
		ts = append(ts, e.Title)
	}
	return ts
}

// TestExperimentRegistryResolves pins cmd/isobench's -experiment contract to
// what its hand-written branches did before the registry: every name of the
// old flag string still resolves, and the groups print the same sections in
// the same order.
func TestExperimentRegistryResolves(t *testing.T) {
	all := Experiments("")
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.Name] || e.Name == "all" || e.Name == "ablations" {
			t.Errorf("experiment name %q is duplicated or shadows a group", e.Name)
		}
		seen[e.Name] = true
	}

	const oldFlag = "table1|table2|table3|table4|table5|table6|table7|table8|fig4|fig5|fig6|ablations|serving|scaling|chaos|all"
	for _, name := range strings.Split(oldFlag, "|") {
		if len(SelectExperiments(all, name)) == 0 {
			t.Errorf("-experiment %s no longer resolves", name)
		}
		if !slices.Contains(strings.Split(ExperimentUsage(), "|"), name) {
			t.Errorf("-experiment help text %q omits %s", ExperimentUsage(), name)
		}
	}
	if got := SelectExperiments(all, "table9"); got != nil {
		t.Errorf("unknown name selected %v", titles(got))
	}
	if got := SelectExperiments(all, "fig4"); len(got) != 1 || got[0].Name != "fig4" {
		t.Errorf("fig4 selected %v", titles(got))
	}

	ablations := []string{
		"Ablation: index structures",
		"Ablation: data distribution (4 nodes)",
		"Ablation: bulk brick reads vs scattered reads",
		"Ablation: metacell size",
		"Ablation: host dispatch vs independent nodes",
		"Ablation: query acceleration structures",
	}
	if got := titles(SelectExperiments(all, "ablations")); !slices.Equal(got, ablations) {
		t.Errorf("ablations expands to\n%q, want\n%q", got, ablations)
	}
	want := slices.Concat([]string{
		"Table 1: indexing structure sizes",
		"Table2: performance on 1 node(s)",
		"Table3: performance on 2 node(s)",
		"Table4: performance on 4 node(s)",
		"Table5: performance on 8 node(s)",
		"Table 6: active metacell distribution (4 nodes)",
		"Table 7: triangle distribution (4 nodes)",
		"Table 8: time-varying browsing (iso 70, 4 nodes)",
		"Figure 5: overall time vs isovalue",
		"Figure 6: speedup vs isovalue",
		"Figure 4: isosurface render (iso 190)",
	}, ablations, []string{
		"Serving layer: throughput vs clients (4 nodes)",
		"Scaling: sharded serving tier, throughput vs replicas (4 nodes each)",
		"Chaos: availability and tail latency under injected faults (resilient router vs naive client)",
	})
	if got := titles(SelectExperiments(all, "all")); !slices.Equal(got, want) {
		t.Errorf("all expands to\n%q, want\n%q", got, want)
	}
}

// TestExperimentsRun runs every registry entry to completion at Small(). The
// serving-tier load experiments take seconds to tens of seconds (and several
// times that under the race detector), so -short and -race skip them; the
// paced one spends most of its time waiting out fault latencies and
// timeouts, and runs beside the rest.
func TestExperimentsRun(t *testing.T) {
	image := filepath.Join(t.TempDir(), "fig4.ppm")
	for _, e := range Experiments(image) {
		t.Run(e.Name, func(t *testing.T) {
			if e.Load && (testing.Short() || raceEnabled) {
				t.Skip("serving-tier load experiment")
			}
			if e.Paced {
				t.Parallel()
			}
			var out bytes.Buffer
			v, err := e.Report(context.Background(), Small(), &out)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(out.String(), "\n=== "+e.Title+" ===\n") || strings.Count(out.String(), "\n") < 3 {
				t.Errorf("output lacks its header or its table:\n%s", out.String())
			}
			if e.Metric == "" && v != 0 {
				t.Errorf("returned %v with no Metric to report it under", v)
			}
		})
	}
}
