// Command bench is the repository's benchmark: three workloads through the
// public API (cold_sweep, routed_hot, routed_churn), five end-to-end metrics
// from an untraced pass, and the per-layer metrics from a separate traced
// pass. BENCHMARK.json at the repository root describes it; README.md in this
// directory says what the numbers mean.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	runs     int
	jsonPath string
	outDir   string
	specPath string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "cold_sweep, routed_hot, routed_churn, or all (each in its own subprocess)")
	fs.Int64Var(&o.seed, "seed", 1, "seeds the order of every client's request stream")
	fs.Float64Var(&o.seconds, "seconds", 0, "length of the timed phase (0 = run_seconds from BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "0 = the untraced pass and its end-to-end metrics, 1 = the traced pass and its per-layer metrics")
	fs.IntVar(&o.runs, "runs", 1, "with -workload all: runs per workload, on seeds seed, seed+1, …")
	fs.StringVar(&o.jsonPath, "json", "", "write the runs to this file")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for span files and scratch")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "the benchmark description, for run_seconds and the bounds")
	compare := fs.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	aa := fs.Bool("aa", false, "run the full set twice on this build, in alternating order, and compare the two")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := readSpec(o.specPath)
	if err != nil {
		return fmt.Errorf("reading the benchmark description: %w", err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files, got %d", fs.NArg())
		}
		a, err := readResults(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := readResults(fs.Arg(1))
		if err != nil {
			return err
		}
		return compareRuns(stdout, spec, a, b)
	case *aa:
		return runAA(ctx, o, spec, stdout, stderr)
	case o.workload == "all":
		f, err := runAll(ctx, o, workloads, stderr)
		if err != nil {
			return err
		}
		printRuns(stdout, f)
		return finish(o, f)
	}

	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	rec, err := runOne(ctx, o, w)
	if err != nil {
		return err
	}
	if err := finish(o, resultFile{Runs: []record{rec}}); err != nil {
		return err
	}
	// The contract's result line, last on standard output.
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// finish writes the -json file if one was asked for and fails the command
// when any response was wrong: a benchmark that served a bad mesh has not
// measured the system.
func finish(o options, f resultFile) error {
	if o.jsonPath != "" {
		if err := writeResults(o.jsonPath, f); err != nil {
			return err
		}
	}
	for _, r := range f.Runs {
		if r.Failed > 0 {
			return fmt.Errorf("%s seed %d: %d of %d requests failed", r.Workload, r.Seed, r.Failed, r.Attempted)
		}
	}
	return nil
}

// runOne measures one workload in this process.
func runOne(ctx context.Context, o options, w workload) (record, error) {
	cfg := fullConfig(o.seconds, o.outDir)
	st := settings{
		Volume:         fmt.Sprintf("RM %dx%dx%d u8 step %d seed %d", cfg.nx, cfg.ny, cfg.nz, cfg.step, cfg.dataSeed),
		HeapTriggerMB:  int(cfg.heapTrigger >> 20),
		WarmupRequests: cfg.warmupRequests,
		SetupRepeats:   cfg.setupRepeats,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		GoVersion:      runtime.Version(),
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return record{}, err
	}
	if cfg.heapTrigger > 0 {
		debug.SetGCPercent(-1) // the harness collects at fixed points: see config.collect
	}
	var res result
	var err error
	if o.trace == 1 {
		res, err = traced(ctx, cfg, w, o.seed, st)
	} else {
		res, err = endToEnd(ctx, cfg, w, o.seed)
	}
	if err != nil {
		return record{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Settings: st, result: res}, nil
}

// runAll runs each workload of order, runs times, each run re-executing this
// binary so no workload inherits another's heap, caches or sockets and the
// order does not matter.
func runAll(ctx context.Context, o options, order []workload, stderr io.Writer) (resultFile, error) {
	var f resultFile
	self, err := os.Executable()
	if err != nil {
		return f, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return f, err
	}
	for run := 0; run < o.runs; run++ {
		for _, w := range order {
			tmp, err := os.CreateTemp(o.outDir, "run-*.json")
			if err != nil {
				return f, err
			}
			tmp.Close()
			seed := o.seed + int64(run)
			fmt.Fprintf(stderr, "bench: %s seed %d trace %d …\n", w.name, seed, o.trace)
			cmd := exec.CommandContext(ctx, self,
				"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(o.trace), "-out", o.outDir, "-spec", o.specPath, "-json", tmp.Name())
			cmd.Stderr = stderr
			// The child's result line is for the contract's driver; its
			// -json file carries the same numbers and the settings.
			runErr := cmd.Run()
			one, err := readResults(tmp.Name())
			os.Remove(tmp.Name()) //nolint:errcheck // scratch
			if err != nil {
				if runErr != nil {
					return f, fmt.Errorf("%s seed %d: %w", w.name, seed, runErr)
				}
				return f, err
			}
			f.Runs = append(f.Runs, one.Runs...)
		}
	}
	return f, nil
}

// printRuns prints every metric of every run by name, with its unit.
func printRuns(w io.Writer, f resultFile) {
	for _, r := range f.Runs {
		fmt.Fprintf(w, "%s  seed %d  trace %d  attempted %d  failed %d\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := r.Metrics[name]
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

// runAA measures the full set twice on the same build — the second time in
// reverse workload order — and judges the pair by the rule -compare applies
// to two builds. A bound tighter than the build's own run-to-run spread shows
// here as "unresolved".
func runAA(ctx context.Context, o options, spec benchSpec, stdout, stderr io.Writer) error {
	if o.runs < 2 {
		o.runs = 2 // seeds 1 and 2: a spread needs two runs a side
	}
	a, err := runAll(ctx, o, workloads, stderr)
	if err != nil {
		return err
	}
	reversed := append([]workload(nil), workloads...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	b, err := runAll(ctx, o, reversed, stderr)
	if err != nil {
		return err
	}
	if o.jsonPath != "" {
		base := strings.TrimSuffix(o.jsonPath, ".json")
		if err := writeResults(base+".a.json", a); err != nil {
			return err
		}
		if err := writeResults(base+".b.json", b); err != nil {
			return err
		}
	}
	return compareRuns(stdout, spec, a, b)
}
