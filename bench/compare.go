package main

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
)

// compareRuns prints one row per workload × end-to-end metric for two sets
// of untraced runs — a the parent (or first set), b the change (or second)
// — and returns an error if any row regressed. A row is a regression when
// b's median is worse than a's by more than the metric's bound. It is
// unresolved, not passed, when either side's own run-to-run spread
// (interquartile range ÷ median) is wider than the bound, unless every run
// of b reads better than every run of a.
func compareRuns(w io.Writer, spec benchSpec, a, b resultFile) error {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\ta q1..q3\tb median\tb q1..q3\tdelta\tbound\tverdict\t")
	var regressed, unresolved int
	for _, wl := range spec.Workloads {
		for _, em := range spec.EndToEnd {
			av, bv := values(a, wl.Name, em.Name), values(b, wl.Name, em.Name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t-\t%.0f%%\tmissing\t\n", wl.Name, em.Name, em.Unit, 100*em.Bound)
				unresolved++
				continue
			}
			am, bm := median(av), median(bv)
			worse := (bm - am) / am // share of a's median by which b is worse
			if em.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > em.Bound:
				verdict = "REGRESSED"
				regressed++
			case clearlyBetter(av, bv, em.Better):
			case len(av) < 2 || len(bv) < 2 || spread(av) > em.Bound || spread(bv) > em.Bound:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%s\t%.4g\t%s\t%+.1f%%\t%.0f%%\t%s\t\n",
				wl.Name, em.Name, em.Unit, am, iqr(av), bm, iqr(bv), 100*(bm-am)/am, 100*em.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved (spread wider than the bound, or fewer than two runs a side)\n", regressed, unresolved)
	if regressed > 0 {
		return errors.New("regression beyond the benchmark's bound")
	}
	return nil
}

// values returns the untraced runs' readings of one metric on one workload.
func values(f resultFile, workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			v = append(v, m.Value)
		}
	}
	return v
}

func iqr(v []float64) string {
	if len(v) < 2 {
		return "-"
	}
	q := quartiles(v)
	return fmt.Sprintf("%.4g..%.4g", q[0], q[2])
}

// clearlyBetter reports whether every run of b reads better than every run
// of a.
func clearlyBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
