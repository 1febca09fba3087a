package cluster

import (
	"time"

	"repro/internal/blockio"
	"repro/internal/obs"
)

// engineMetrics holds the engine's pre-resolved metric handles. A nil
// *engineMetrics disables instrumentation entirely — the only cost left in
// the pipeline is one pointer nil-check per batch, which is what the
// instrumentation-overhead CI gate holds to ≤ 3% end to end.
type engineMetrics struct {
	reg *obs.Registry

	extract       *obs.Histogram // whole-extraction wall time
	batchWeld     *obs.Histogram // per-batch weld latency (record checks + triangulation)
	merge         *obs.Histogram // per node-extraction expand-phase wall time
	producerStall *obs.Histogram // per node-extraction producer stall total
	consumerStall *obs.Histogram // per node-extraction consumer stall total
	readLatency   *obs.Histogram // block device read latency

	extractions *obs.Counter // completed extractions
	triangles   *obs.Counter // triangles produced
	batches     *obs.Counter // record batches through the pipeline
	readBytes   *obs.Counter // payload bytes read off the node devices

	mtriPerSec   *obs.Gauge // last extraction's delivered Mtri/s
	scratchBytes *obs.Gauge // heap held by the pipeline scratch on the engine's free list
}

// EnableMetrics instruments the engine into reg: extraction and pipeline
// histograms under cluster_*, device read latency and I/O counters under
// blockio_*. Call it once, before the engine serves queries — it wraps the
// node devices with a read observer. Engines built with Config.Metrics set
// are instrumented automatically; this method exists for engines constructed
// by Open, which has no Config.
func (e *Engine) EnableMetrics(reg *obs.Registry) {
	if reg == nil || e.met != nil {
		return
	}
	m := &engineMetrics{
		reg:           reg,
		extract:       reg.Histogram("cluster_extract_seconds", "isosurface extraction wall time"),
		batchWeld:     reg.Histogram("cluster_batch_weld_seconds", "per-batch weld latency in the streaming pipeline: a lane checking and triangulating one batch of records"),
		merge:         reg.Histogram("cluster_merge_seconds", "per node-extraction expand-phase wall time: allocating the surface's soup at its exact length and every lane gathering the welded batches into it (extractions that keep their meshes only)"),
		producerStall: reg.Histogram("cluster_producer_stall_seconds", "per node-extraction producer time blocked on a full pipeline"),
		consumerStall: reg.Histogram("cluster_consumer_stall_seconds", "per node-extraction lane time blocked on an empty pipeline, summed over the lanes"),
		readLatency:   reg.Histogram("blockio_read_seconds", "node block device read latency"),
		extractions:   reg.Counter("cluster_extractions_total", "completed extractions"),
		triangles:     reg.Counter("cluster_triangles_total", "isosurface triangles produced"),
		batches:       reg.Counter("cluster_batches_total", "record batches through the streaming pipeline"),
		readBytes:     reg.Counter("blockio_read_bytes_total", "payload bytes read from the node devices"),
		mtriPerSec:    reg.Gauge("cluster_last_mtri_per_sec", "last extraction's delivered millions of triangles per second"),
		scratchBytes:  reg.Gauge("mem_engine_scratch_bytes", "heap the engine retains as pipeline scratch between extractions: record buffers, welder tables and welded batch meshes, by capacity, over the free list"),
	}
	reg.GaugeFunc("blockio_blocks_read", "blocks read across all node devices", func() float64 {
		return float64(e.deviceStats().BlocksRead)
	})
	reg.GaugeFunc("blockio_cache_hit_ratio", "block cache hit fraction across all node devices (0 without Config.CacheBlocks)", func() float64 {
		st := e.deviceStats()
		if total := st.CacheHits + st.CacheMiss; total > 0 {
			return float64(st.CacheHits) / float64(total)
		}
		return 0
	})
	for i, dev := range e.devs {
		e.devs[i] = blockio.WithReadObserver(dev, func(bytes int, d time.Duration) {
			m.readLatency.Observe(d)
			m.readBytes.Add(int64(bytes))
		})
	}
	e.met = m
}

// deviceStats sums the I/O counters across every node device.
func (e *Engine) deviceStats() blockio.Stats {
	var st blockio.Stats
	for _, d := range e.devs {
		st = st.Add(d.Stats())
	}
	return st
}

// recordExtract publishes one completed extraction's metrics.
func (m *engineMetrics) recordExtract(res *Result) {
	if m == nil {
		return
	}
	m.extract.Observe(res.Wall)
	m.extractions.Inc()
	m.triangles.Add(int64(res.Triangles))
	var batches int
	for i := range res.PerNode {
		n := &res.PerNode[i]
		batches += n.Batches
		if n.PipelineWall > 0 { // streaming mode only
			m.producerStall.Observe(n.ProducerStall)
			m.consumerStall.Observe(n.ConsumerStall)
		}
	}
	m.batches.Add(int64(batches))
	if s := res.Wall.Seconds(); s > 0 {
		m.mtriPerSec.Set(float64(res.Triangles) / s / 1e6)
	}
}
