package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ---------------------------------------------------------------------------
// The experiment registry: every table, figure, ablation and serving-tier
// experiment, each with its parameters and title written once. cmd/isobench
// and the root BenchmarkExperiments are both a loop over it.

// Experiment is one registry entry.
type Experiment struct {
	Name  string // isobench -experiment value and sub-benchmark name
	Title string // section header

	// Ablation puts the entry in the "ablations" group.
	Ablation bool
	// Load marks a serving-tier experiment that issues hundreds of requests
	// per row: go test -bench runs it at Small(), not at the paper's size,
	// and -short or -race test runs skip it.
	Load bool
	// Paced marks an experiment whose run time is set by modeled link pacing
	// and fault timeouts — minutes at any size. go test -bench skips it.
	Paced bool

	// Metric names the headline number Run returns ("" = none, Run returns 0).
	Metric string
	Run    runFunc
}

// runFunc executes an experiment on cfg and prints its table to out.
type runFunc = func(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error)

// Report prints the section header, then runs the experiment.
func (e Experiment) Report(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error) {
	fmt.Fprintf(out, "\n=== %s ===\n", e.Title)
	return e.Run(ctx, cfg, out)
}

// SelectExperiments resolves an isobench -experiment value against the
// registry: one experiment's name, "ablations", or "all". Unknown names
// select nothing.
func SelectExperiments(all []Experiment, name string) []Experiment {
	var sel []Experiment
	for _, e := range all {
		if name == "all" || name == e.Name || (name == "ablations" && e.Ablation) {
			sel = append(sel, e)
		}
	}
	return sel
}

// ExperimentUsage lists every -experiment value: the names, then the groups.
func ExperimentUsage() string {
	var names []string
	for _, e := range Experiments("") {
		names = append(names, e.Name)
	}
	return strings.Join(append(names, "ablations", "all"), "|")
}

// Experiments returns the registry in report order. fig4 writes its image to
// imagePath ("" = no file). An entry runs its driver, writes the rows — a
// driver that fails returns none, and WriteTable prints nothing for none —
// and returns its metric.
func Experiments(imagePath string) []Experiment {
	const midIso = 110 // the ablations' reference isovalue
	midIsoNote := fmt.Sprintf("[iso=%d]", midIso)
	exps := []Experiment{{
		Name: "table1", Title: "Table 1: indexing structure sizes",
		Run: func(_ context.Context, _ RMConfig, out io.Writer) (float64, error) {
			rows, err := Table1(96, 7)
			WriteTable(out, rows, "")
			return 0, err
		},
	}}
	for i, procs := range []int{1, 2, 4, 8} {
		exps = append(exps, Experiment{
			Name:   fmt.Sprintf("table%d", i+2),
			Title:  fmt.Sprintf("Table%d: performance on %d node(s)", i+2, procs),
			Metric: "Mtri/s", // mean over the isovalue sweep
			Run: func(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error) {
				rows, err := PerfTable(ctx, cfg, procs, PerfOptions{})
				if err != nil {
					return 0, err
				}
				WriteTable(out, rows, fmt.Sprintf("[p=%d]", procs))
				var rate float64
				for _, r := range rows {
					rate += r.Rate
				}
				return rate / float64(len(rows)), nil
			},
		})
	}
	balance := func(metric string) runFunc {
		return func(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			rows, err := BalanceTable(ctx, cfg, 4, metric)
			if err != nil {
				return 0, err
			}
			WriteTable(out, rows, "["+metric+"]")
			worst := 0.0
			for _, r := range rows {
				worst = max(worst, r.MaxAvg)
			}
			return worst, nil
		}
	}
	scalingProcs := []int{1, 2, 4, 8}
	return append(exps, []Experiment{{
		Name: "table6", Title: "Table 6: active metacell distribution (4 nodes)",
		Metric: "worst-max/avg", Run: balance("metacells"),
	}, {
		Name: "table7", Title: "Table 7: triangle distribution (4 nodes)",
		Metric: "worst-max/avg", Run: balance("triangles"),
	}, {
		Name: "table8", Title: "Table 8: time-varying browsing (iso 70, 4 nodes)",
		Run: func(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			// Table 8 preprocesses 16 separate time steps; the half-size grid
			// keeps it minutes-scale (the shape is size-independent).
			cfg.NX, cfg.NY, cfg.NZ = cfg.NX/2, cfg.NY/2, cfg.NZ/2
			var steps []int
			for s := 180; s <= 195; s++ {
				steps = append(steps, s)
			}
			rows, size, err := Table8(ctx, cfg, steps, 70, 4)
			if err != nil {
				return 0, err
			}
			WriteTable(out, rows, "[iso=70 p=4]")
			fmt.Fprintf(out, "time-varying index: %d steps, %s total (resident in memory)\n",
				len(steps), obs.FormatBytes(size))
			return 0, nil
		},
	}, {
		Name: "fig5", Title: "Figure 5: overall time vs isovalue",
		Run: func(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			pts, err := ScalingSeries(ctx, cfg, scalingProcs, PerfOptions{})
			if err != nil {
				return 0, err
			}
			writeScaling(out, scalingProcs, pts, "overall time", func(p ScalingPoint) string { return fmtDur(p.Overall) })
			return 0, nil
		},
	}, {
		Name: "fig6", Title: "Figure 6: speedup vs isovalue",
		Metric: "speedup-p8", // mean over the isovalue sweep
		Run: func(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			pts, err := ScalingSeries(ctx, cfg, scalingProcs, PerfOptions{})
			if err != nil {
				return 0, err
			}
			writeScaling(out, scalingProcs, pts, "speedup vs p=1", func(p ScalingPoint) string { return fmt.Sprintf("%.2f", p.Speedup) })
			var s8 float64
			n := 0
			for _, p := range pts {
				if p.Procs == 8 {
					s8 += p.Speedup
					n++
				}
			}
			return s8 / float64(n), nil
		},
	}, {
		Name: "fig4", Title: "Figure 4: isosurface render (iso 190)",
		Run: func(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			res, err := Figure4(ctx, cfg, 190, 4, 1024, 768, imagePath)
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(out, "triangles: %d, covered pixels: %d, image: %s\n", res.Triangles, res.CoveredPixels, imagePath)
			return 0, nil
		},
	}, {
		Name: "ablation-index", Title: "Ablation: index structures", Ablation: true,
		Run: func(_ context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			rows, err := AblationIndexStructures(cfg)
			WriteTable(out, rows, "")
			return 0, err
		},
	}, {
		Name: "ablation-distribution", Title: "Ablation: data distribution (4 nodes)", Ablation: true,
		Run: func(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			rows, err := AblationDistribution(ctx, cfg, 4)
			WriteTable(out, rows, "[p=4]")
			return 0, err
		},
	}, {
		Name: "ablation-bulkread", Title: "Ablation: bulk brick reads vs scattered reads", Ablation: true,
		Run: func(_ context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			rows, err := AblationBulkRead(cfg)
			WriteTable(out, rows, "")
			return 0, err
		},
	}, {
		Name: "ablation-metacell", Title: "Ablation: metacell size", Ablation: true,
		Run: func(_ context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			rows, err := AblationMetacellSize(cfg, midIso, []int{5, 9, 17})
			WriteTable(out, rows, midIsoNote)
			return 0, err
		},
	}, {
		Name: "ablation-dispatch", Title: "Ablation: host dispatch vs independent nodes", Ablation: true,
		Run: func(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			rows, err := AblationHostDispatch(ctx, cfg, midIso, []int{2, 4, 8})
			WriteTable(out, rows, midIsoNote)
			return 0, err
		},
	}, {
		Name: "ablation-query", Title: "Ablation: query acceleration structures", Ablation: true,
		Run: func(_ context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			rows, err := AblationQueryStructures(cfg, midIso)
			WriteTable(out, rows, midIsoNote)
			return 0, err
		},
	}, {
		Name: "serving", Title: "Serving layer: throughput vs clients (4 nodes)", Load: true,
		Metric: "speedup", // served vs direct throughput at the largest client count
		Run: func(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			w := ServingWorkload{}.withDefaults()
			rows, err := ServingTable(ctx, cfg, 4, []int{1, 8, 32}, w, serve.Config{})
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(out, "closed-loop clients, Zipf(%.2g) over %d isovalue levels, %d requests/client, 4 nodes\n",
				w.ZipfS, w.Levels, w.ReqPerClient)
			WriteTable(out, rows, "")
			return rows[len(rows)-1].Speedup, nil
		},
	}, {
		Name: "scaling", Title: "Scaling: sharded serving tier, throughput vs replicas (4 nodes each)", Load: true, Paced: true,
		Run: func(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			w := ServingWorkload{ReqPerClient: 16}.withDefaults()
			// ~200 Mbit per replica, era-plausible cluster networking (DESIGN §2
			// models the era's disks the same way): slow enough that four
			// replicated links still fit under one test host's CPU.
			rep := dist.ReplicaConfig{LinkBytesPerSec: 25e6}
			rows, err := ScalingTable(ctx, cfg, 4, []int{1, 2, 4}, 32, w, rep)
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(out, "32 closed-loop clients, Zipf(%.2g) over %d isovalue levels, %d requests/client, %.0f MB/s modeled link per replica; steady state (levels warmed before timing)\n",
				w.ZipfS, w.Levels, w.ReqPerClient, float64(rep.LinkBytesPerSec)/1e6)
			WriteTable(out, rows, "")
			return 0, nil
		},
	}, {
		Name: "chaos", Title: "Chaos: availability and tail latency under injected faults (resilient router vs naive client)", Load: true, Paced: true,
		Metric: "resilient-failures", // requests the resilient router failed or mis-served; isobench -chaos-strict gates on 0
		Run: func(ctx context.Context, cfg RMConfig, out io.Writer) (float64, error) {
			w := ServingWorkload{ReqPerClient: 16, Levels: 16}.withDefaults()
			ccfg := ChaosConfig{Replicas: 3, Clients: 8, Seed: 42}.withDefaults()
			scenarios := DefaultChaosScenarios()
			rows, err := ChaosTable(ctx, cfg, 2, ccfg, w, scenarios)
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(out, "%d replicas, fault on the hottest key's home shard; %d clients × %d requests, Zipf(%.2g) over %d levels, %v/request deadline\n",
				ccfg.Replicas, ccfg.Clients, w.ReqPerClient, w.ZipfS, w.Levels, ccfg.RequestTimeout)
			for _, sc := range scenarios {
				if sc.Fault != (chaos.Fault{}) {
					fmt.Fprintf(out, "  %-10s %s\n", sc.Name+":", sc.Fault)
				}
			}
			WriteTable(out, rows, "")
			bad := 0
			for _, r := range rows {
				if r.Client == "resilient" {
					bad += r.Failed + r.Mismatched
				}
			}
			return float64(bad), nil
		},
	}}...)
}
