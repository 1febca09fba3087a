package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
)

// ---------------------------------------------------------------------------
// Ablation G — extraction schedule: the paper's two-phase
// retrieve-then-triangulate vs the streaming producer/consumer pipeline.

// ScheduleRow compares the two per-node extraction schedules at one
// isovalue: measured wall time, modeled disk time, and peak staging memory
// (the largest node's buffered record bytes — all active metacells for
// two-phase, the bounded pipeline ring for streaming).
type ScheduleRow struct {
	Iso    float32 `col:"isovalue,%.0f"`
	Active int     `col:"active MC"`

	TwoPhaseWall time.Duration `col:"2-phase wall"`
	TwoPhaseDisk time.Duration `col:"2-phase disk"`
	TwoPhasePeak int64         `col:"2-phase peak,bytes"`

	StreamWall    time.Duration `col:"stream wall"`
	StreamDisk    time.Duration `col:"stream disk"`
	StreamPeak    int64         `col:"stream peak,bytes"`
	ProducerStall time.Duration `col:"prod stall"` // slowest node's producer stall
	ConsumerStall time.Duration `col:"cons stall"` // slowest node's lane stall, summed over its lanes
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
			row.TwoPhaseDisk = max(row.TwoPhaseDisk, n.IOModelTime)
			row.TwoPhasePeak = max(row.TwoPhasePeak, int64(n.ActiveMetacells)*recSize)
		}
		for _, n := range str.PerNode {
			row.StreamDisk = max(row.StreamDisk, n.IOModelTime)
			row.ProducerStall = max(row.ProducerStall, n.ProducerStall)
			row.ConsumerStall = max(row.ConsumerStall, n.ConsumerStall)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
