package harness

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// ---------------------------------------------------------------------------
// Ablation G — extraction schedule: the paper's two-phase
// retrieve-then-triangulate vs the streaming producer/consumer pipeline.

// ScheduleRow compares the two per-node extraction schedules at one
// isovalue: measured wall time, modeled disk time, and peak staging memory
// (the largest node's buffered record bytes — all active metacells for
// two-phase, the bounded pipeline ring for streaming).
type ScheduleRow struct {
	Iso    float32
	Active int

	TwoPhaseWall time.Duration
	TwoPhaseDisk time.Duration
	TwoPhasePeak int64

	StreamWall    time.Duration
	StreamDisk    time.Duration
	StreamPeak    int64
	ProducerStall time.Duration // slowest node's producer stall
	ConsumerStall time.Duration // slowest node's lane stall, summed over its lanes
}

// AblationSchedule sweeps the isovalues through both schedules on the same
// preprocessed engine. The streaming peak is bounded by the pipeline's
// depth×batch×recordSize constant no matter how large the isosurface;
// the two-phase peak is the active-metacell bytes themselves.
func AblationSchedule(ctx context.Context, cfg RMConfig, procs int) ([]ScheduleRow, error) {
	eng, err := Engine(cfg, procs)
	if err != nil {
		return nil, err
	}
	recSize := int64(eng.Layout.RecordSize())
	var rows []ScheduleRow
	for _, iso := range Sweep() {
		two, err := eng.ExtractTwoPhase(ctx, iso, cluster.Options{})
		if err != nil {
			return nil, err
		}
		str, err := eng.Extract(ctx, iso, cluster.Options{})
		if err != nil {
			return nil, err
		}
		if two.Active != str.Active || two.Triangles != str.Triangles {
			return nil, fmt.Errorf("harness: schedules disagree at iso %v: %d/%d active, %d/%d triangles",
				iso, two.Active, str.Active, two.Triangles, str.Triangles)
		}
		row := ScheduleRow{
			Iso:          iso,
			Active:       two.Active,
			TwoPhaseWall: two.Wall,
			StreamWall:   str.Wall,
			StreamPeak:   str.MaxPeakBufferedBytes(),
		}
		for _, n := range two.PerNode {
			if n.IOModelTime > row.TwoPhaseDisk {
				row.TwoPhaseDisk = n.IOModelTime
			}
			if peak := int64(n.ActiveMetacells) * recSize; peak > row.TwoPhasePeak {
				row.TwoPhasePeak = peak
			}
		}
		for _, n := range str.PerNode {
			if n.IOModelTime > row.StreamDisk {
				row.StreamDisk = n.IOModelTime
			}
			if n.ProducerStall > row.ProducerStall {
				row.ProducerStall = n.ProducerStall
			}
			if n.ConsumerStall > row.ConsumerStall {
				row.ConsumerStall = n.ConsumerStall
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintScheduleAblation renders the schedule comparison.
func PrintScheduleAblation(w io.Writer, procs int, rows []ScheduleRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "isovalue\tactive MC\t2-phase wall\t2-phase disk\t2-phase peak\tstream wall\tstream disk\tstream peak\tprod stall\tcons stall\t[p=%d]\n", procs)
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t\n",
			r.Iso, r.Active,
			fmtDur(r.TwoPhaseWall), fmtDur(r.TwoPhaseDisk), obs.FormatBytes(r.TwoPhasePeak),
			fmtDur(r.StreamWall), fmtDur(r.StreamDisk), obs.FormatBytes(r.StreamPeak),
			fmtDur(r.ProducerStall), fmtDur(r.ConsumerStall))
	}
	tw.Flush()
}
