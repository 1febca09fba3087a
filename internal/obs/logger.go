package obs

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// FormatBytes renders a byte count for reports and tables in binary units with
// two decimals ("500 B", "2.00 KB", "5.00 MB", "3.00 GB").
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// LogLine renders a one-line snapshot of the registry — counters and gauges
// as name=value, histograms as name=p50/p99/max — the headless-run heartbeat
// format. Metrics that have recorded nothing are omitted to keep the line
// short.
func (r *Registry) LogLine() string {
	var b strings.Builder
	for _, m := range r.Snapshot() {
		if m.Hist != nil {
			if m.Hist.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, " %s=%v/%v/%v", m.Name,
				m.Hist.P50.Round(time.Microsecond),
				m.Hist.P99.Round(time.Microsecond),
				m.Hist.Max.Round(time.Microsecond))
			continue
		}
		if m.Value == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s=%s", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64))
	}
	if b.Len() == 0 {
		return "no metrics recorded"
	}
	return strings.TrimPrefix(b.String(), " ")
}

// LogLoop emits LogLine through logf every interval until ctx is done — the
// periodic one-line stats logger for headless runs. It blocks; run it in its
// own goroutine.
func LogLoop(ctx context.Context, r *Registry, interval time.Duration, logf func(format string, args ...any)) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	tk := time.NewTicker(interval)
	defer tk.Stop()
	for {
		select {
		case <-tk.C:
			logf("stats: %s", r.LogLine())
		case <-ctx.Done():
			return
		}
	}
}
