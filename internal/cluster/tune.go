package cluster

import (
	"context"
	"runtime"
	"time"
)

// TunedParams is one calibrated streaming-pipeline configuration.
type TunedParams struct {
	Threads       int // triangulation workers per node
	BatchRecords  int // metacell records per pipeline batch
	PipelineDepth int // batch buffers circulating per node

	Probes int           // calibration extractions run
	Wall   time.Duration // total calibration time
}

// probeRecordCount bounds each calibration probe: the producer stops once it
// has delivered this many records to the workers, so a probe costs a fixed
// slice of one node's work regardless of isosurface size and of the
// BatchRecords candidate being scored. The bound is in records, not batches,
// because hand-offs are full batches: 2048 records are two hand-offs at the
// largest candidate and 32 at the smallest.
const probeRecordCount = 2048

// batchRecordCands and pipelineDepthCands are the tuner's search grid around
// the defaults (spanning 16× in batch granularity and 4× in buffering).
var (
	batchRecordCands   = []int{64, DefaultBatchRecords, 1024}
	pipelineDepthCands = []int{2, DefaultPipelineDepth, 8}
)

// AutoTune calibrates the streaming pipeline for this engine on this host:
// short probe extractions on node 0 — each limited to probeRecordCount
// records — measure delivered records/sec while a staged hill-climb walks
// Threads (bounded by this node's share of GOMAXPROCS), then BatchRecords,
// then PipelineDepth. The result is cached on the engine, so concurrent and
// repeated extractions with Options.AutoTune pay for calibration once.
//
// The stall times the pipeline already reports drive the intuition here: a
// producer-stalled node wants more or bigger buffers; a consumer-stalled node
// wants more threads. Rather than inverting that model, the tuner just
// scores each candidate by throughput — the probes are cheap enough.
func (e *Engine) AutoTune(ctx context.Context, iso float32) (TunedParams, error) {
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	if e.tuned != nil {
		return *e.tuned, nil
	}
	start := time.Now()
	tp := TunedParams{
		Threads:       e.Threads,
		BatchRecords:  DefaultBatchRecords,
		PipelineDepth: DefaultPipelineDepth,
	}
	if tp.Threads < 1 {
		tp.Threads = 1
	}

	probes := 0
	// bestProdStall tracks the winning configuration's producer stall as a
	// fraction of its pipeline wall: it is the signal for whether more
	// buffering can help at all (a producer that never waits on a full ring
	// gains nothing from a deeper pipeline).
	bestProdStall := 0.0
	score := func(threads, batch, depth int) (float64, float64, error) {
		opts := Options{
			Threads:       threads,
			BatchRecords:  batch,
			PipelineDepth: depth,
			probeRecords:  probeRecordCount,
		}
		nr, err := e.extractNodeStreaming(ctx, 0, iso, opts.applyDefaults())
		if err != nil {
			return 0, 0, err
		}
		probes++
		w := nr.PipelineWall.Seconds()
		if w <= 0 || nr.ActiveMetacells == 0 {
			return 0, 0, nil
		}
		return float64(nr.ActiveMetacells) / w, nr.ProducerStall.Seconds() / w, nil
	}

	// Stage 1: thread count. Candidates are powers of two up to this node's
	// share of the host's CPUs (every node tunes the same way, so a
	// per-node budget of GOMAXPROCS/Procs keeps the full extraction from
	// oversubscribing), plus the engine's configured value.
	budget := runtime.GOMAXPROCS(0) / e.Procs
	if budget < 1 {
		budget = 1
	}
	threadCands := []int{tp.Threads}
	for th := 1; th <= budget; th *= 2 {
		if th != tp.Threads {
			threadCands = append(threadCands, th)
		}
	}
	if budget != tp.Threads && budget&(budget-1) != 0 {
		threadCands = append(threadCands, budget)
	}

	best := -1.0
	for _, th := range threadCands {
		s, ps, err := score(th, tp.BatchRecords, tp.PipelineDepth)
		if err != nil {
			return TunedParams{}, err
		}
		if s > best {
			best, tp.Threads, bestProdStall = s, th, ps
		}
	}

	// Stage 2: batch granularity, with the winning thread count.
	for _, br := range batchRecordCands {
		if br == DefaultBatchRecords {
			continue // already scored in stage 1
		}
		s, ps, err := score(tp.Threads, br, tp.PipelineDepth)
		if err != nil {
			return TunedParams{}, err
		}
		if s > best {
			best, tp.BatchRecords, bestProdStall = s, br, ps
		}
	}

	// Stage 3: pipeline depth. The stall telemetry prunes the upward probe:
	// deeper rings only absorb producer stalls, so if the winning
	// configuration's producer stalled under 1% of its wall, candidates
	// above the current depth are skipped.
	for _, pd := range pipelineDepthCands {
		if pd == tp.PipelineDepth {
			continue
		}
		if pd > tp.PipelineDepth && bestProdStall < 0.01 {
			continue
		}
		s, ps, err := score(tp.Threads, tp.BatchRecords, pd)
		if err != nil {
			return TunedParams{}, err
		}
		if s > best {
			best, tp.PipelineDepth, bestProdStall = s, pd, ps
		}
	}

	tp.Probes = probes
	tp.Wall = time.Since(start)
	e.tuned = &tp
	return tp, nil
}
