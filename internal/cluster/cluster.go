// Package cluster implements the paper's parallel out-of-core pipeline on a
// simulated visualization cluster: p nodes, each owning a private local disk
// holding its stripe of every brick, querying and triangulating
// independently and in parallel, with no communication until the final
// framebuffer composite.
//
// Nodes are goroutines (the host has more hardware threads than the paper's
// 8-node configurations, so speedups are genuinely measured); their "local
// disks" are blockio devices — memory-backed with full block/seek accounting
// by default, or real per-node files under a directory. Per-node I/O time is
// additionally reported under the paper's disk cost model (50 MB/s, 8 KB
// blocks), which is what the experiment tables print alongside measured wall
// time (see DESIGN.md §2).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metacell"
	"repro/internal/obs"
	"repro/internal/volume"
)

// Config controls dataset preprocessing and distribution.
type Config struct {
	// Procs is the number of cluster nodes (≥ 1).
	Procs int
	// Span is the metacell edge length in samples; 0 means the paper's 9.
	Span int
	// Dir, when non-empty, stores each node's brick data in a real file
	// under Dir (node-0.bricks, …; Dir is created if missing) instead of
	// memory.
	Dir string
	// WrapDevice, when set, wraps each node's disk after preprocessing —
	// the hook used for fault injection and custom I/O instrumentation.
	WrapDevice func(node int, dev blockio.Device) blockio.Device
	// ThreadsPerNode is the number of goroutines each node starts to
	// triangulate beside its own, which does too: ThreadsPerNode+1 lanes.
	// The paper's nodes are 2-way SMPs, both CPUs triangulating; 0 means 1.
	ThreadsPerNode int
	// CacheBlocks, when > 0, wraps each node's disk (outside WrapDevice) in
	// an LRU cache of that many 8 KB blocks, so repeated sweeps —
	// animation, time-varying browsing, isovalue scans — serve hot index and
	// brick blocks from memory. Stats report the hits and misses.
	CacheBlocks int
	// Metrics, when set, instruments the engine into the registry:
	// extraction/pipeline histograms and counters under cluster_*, device
	// read latency under blockio_* (see Engine.EnableMetrics). Nil leaves the
	// engine uninstrumented at zero record-path cost.
	Metrics *obs.Registry
}

func (c *Config) applyDefaults() error {
	if c.Procs <= 0 {
		return fmt.Errorf("cluster: Procs must be ≥ 1, got %d", c.Procs)
	}
	if c.Span == 0 {
		c.Span = metacell.DefaultSpan
	}
	return nil
}

// Engine is one preprocessed time step distributed across the nodes' local
// disks: per node a compact interval tree index (kept in memory, as the
// paper's tiny index sizes allow) plus the striped brick data.
type Engine struct {
	Procs   int
	Layout  metacell.Layout
	Disk    blockio.DiskModel // the paper's 50 MB/s disk: the cost model behind every reported I/O time
	Threads int               // triangulation threads per node

	// batchRecords and pipelineDepth size every node's pipeline (see
	// DefaultBatchRecords). They are engine state rather than constants read
	// in place only so the in-package pipeline tests can run 1-record batches
	// and odd depths on an engine of their own.
	batchRecords, pipelineDepth int

	trees []*core.Tree
	devs  []blockio.Device
	files []*blockio.FileStore // the opened file stores, under whatever wraps them in devs: what Close closes

	// scratch holds the pipeline scratch (record ring, per-lane welders,
	// welded batch meshes) of node-extractions not running right now; see
	// pipeScratch in stream.go.
	// A plain free list rather than a sync.Pool: a collection must not empty
	// it, or the next extraction re-grows every mesh on its critical path.
	scratchMu sync.Mutex
	scratch   []*pipeScratch

	// met holds the pre-resolved metric handles when the engine is
	// instrumented (Config.Metrics or EnableMetrics); nil records nothing.
	met *engineMetrics

	// Preprocessing statistics.
	TotalMetacells   int   // non-constant metacells kept
	DroppedMetacells int   // constant metacells discarded
	DataBytes        int64 // total brick bytes across all disks
}

// Build preprocesses a volume and distributes it across the configured
// number of node-local disks (paper §4 and §5.1: extract metacells, drop
// constant ones, plan the compact interval tree, stripe every brick
// round-robin).
func Build(g *volume.Grid, cfg Config) (*Engine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	l, cells := metacell.Extract(g, cfg.Span)
	return buildFromCells(l, cells, cfg)
}

// BuildFromVolumeFile preprocesses a volume file by streaming it one z-slab
// at a time on every core (metacell.ExtractStream), so what resides in memory
// is GOMAXPROCS × span planes of the raw volume plus the extracted metacell
// records — about half the volume on RM-like data — and never the volume.
// This mirrors the paper's single-node preprocessing of 7.5 GB steps on 8 GB
// nodes.
func BuildFromVolumeFile(path string, cfg Config) (*Engine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	pf, err := metacell.OpenPlaneFile(path)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	l, cells, err := metacell.ExtractStream(pf, cfg.Span)
	if err != nil {
		return nil, fmt.Errorf("cluster: streaming %s: %w", path, err)
	}
	return buildFromCells(l, cells, cfg)
}

func buildFromCells(l metacell.Layout, cells []metacell.Cell, cfg Config) (*Engine, error) {
	e := &Engine{
		Procs:            cfg.Procs,
		Layout:           l,
		Disk:             blockio.DefaultDiskModel(),
		Threads:          max(cfg.ThreadsPerNode, 1),
		batchRecords:     DefaultBatchRecords,
		pipelineDepth:    DefaultPipelineDepth,
		TotalMetacells:   len(cells),
		DroppedMetacells: l.Count() - len(cells),
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	ws := make([]*blockio.Writer, cfg.Procs)
	for i := range ws {
		if cfg.Dir == "" {
			// Striping deals the records out round-robin, so no disk gets more
			// than its even share rounded up: the image is sized once.
			ws[i] = blockio.NewWriter()
			ws[i].Reserve((len(cells) + cfg.Procs - 1) / cfg.Procs * l.RecordSize())
		} else {
			w, err := blockio.CreateFile(nodePath(cfg.Dir, i))
			if err != nil {
				return nil, err
			}
			ws[i] = w
		}
	}
	plan := core.Plan(cells)
	sinks := make([]core.RecordWriter, len(ws))
	for i, w := range ws {
		sinks[i] = w
	}
	trees, err := plan.MaterializeStriped(l, cells, sinks)
	if err != nil {
		return nil, fmt.Errorf("cluster: indexing and striping %d metacells: %w", len(cells), err)
	}
	e.trees = trees
	e.devs = make([]blockio.Device, cfg.Procs)
	for i, w := range ws {
		e.DataBytes += w.Offset()
		if cfg.Dir == "" {
			e.devs[i] = blockio.NewStore(w.Bytes(), blockio.DefaultBlockSize)
		} else {
			if err := w.Close(); err != nil {
				return nil, err
			}
			dev, err := blockio.OpenFile(nodePath(cfg.Dir, i), blockio.DefaultBlockSize)
			if err != nil {
				return nil, err
			}
			e.devs[i], e.files = dev, append(e.files, dev)
		}
		if cfg.WrapDevice != nil {
			e.devs[i] = cfg.WrapDevice(i, e.devs[i])
		}
		if cfg.CacheBlocks > 0 {
			e.devs[i] = blockio.NewCache(e.devs[i], blockio.DefaultBlockSize, cfg.CacheBlocks)
		}
	}
	e.EnableMetrics(cfg.Metrics)
	return e, nil
}

func nodePath(dir string, node int) string {
	return filepath.Join(dir, fmt.Sprintf("node-%d.bricks", node))
}

// Close releases file-backed node disks (no-op for memory-backed engines).
func (e *Engine) Close() error {
	var errs []error
	for _, f := range e.files {
		errs = append(errs, f.Close())
	}
	return errors.Join(errs...)
}

// Tree exposes a node's index (for inspection and tests).
func (e *Engine) Tree(node int) *core.Tree { return e.trees[node] }

// IndexSizeBytes returns the packed size of every node's index, all of it
// resident in memory at query time.
func (e *Engine) IndexSizeBytes() int64 {
	var n int64
	for _, t := range e.trees {
		n += t.IndexSizeBytes()
	}
	return n
}

// Device exposes a node's local disk (for inspection and tests).
func (e *Engine) Device(node int) blockio.Device { return e.devs[node] }

// NodeResult reports one node's work for one isosurface query, split into
// the paper's phases: active-metacell (AMC) retrieval and triangulation.
type NodeResult struct {
	Node            int
	ActiveMetacells int
	ActiveCells     int // unit cells intersected within the active metacells
	Triangles       int

	IOStats     blockio.Stats // block accesses during AMC retrieval
	IOModelTime time.Duration // the cost model applied to IOStats
	// AMCWall and TriWall are the busy times of the two phases. They
	// overlap, so AMCWall is the query producer's busy time (retrieval +
	// batch copies, stalls excluded) and TriWall the slowest lane's weld busy
	// time (Threads+1 lanes weld); IOModelTime+TriWall is the node's time in
	// the paper's terms.
	AMCWall time.Duration
	TriWall time.Duration

	// Streaming-pipeline statistics.
	PipelineWall      time.Duration // elapsed time of the pipeline, from the query's start until the kept soup is complete
	Batches           int           // pipeline hand-offs: batches of up to DefaultBatchRecords records the producer sent the lanes
	PeakBufferedBytes int64         // max record bytes buffered at once, ≤ DefaultPipelineDepth×DefaultBatchRecords×recSize
	ProducerStall     time.Duration // producer time blocked on a full pipeline
	ConsumerStall     time.Duration // lane time blocked on an empty pipeline, summed over the lanes

	Mesh *geom.Mesh // nil unless Options.KeepMeshes
	// Chunks is the node's surface as meshio version 2 chunks, one per
	// welded batch in record order, in one buffer of exactly their length
	// (nil unless Options.KeepChunks): what meshio.Seal frames and
	// meshio.DecodeChunks expands to the bytes of Mesh.
	Chunks []byte

	// spans holds this node's stage-trace spans when Options.Trace is set;
	// Extract merges them into Result.Trace.
	spans []obs.Span
}

// Result reports a full parallel extraction.
type Result struct {
	Iso       float32
	PerNode   []NodeResult
	Wall      time.Duration // measured wall time of the whole parallel phase
	Active    int           // total active metacells
	Triangles int           // total triangles
	Trace     *obs.Trace    // per-stage spans of every node (nil unless Options.Trace)
}

// MaxNodeTime returns the slowest node's modeled time (I/O model +
// triangulation wall), the quantity the paper's overall-time figures use
// before the composite step.
func (r *Result) MaxNodeTime() time.Duration {
	var slowest time.Duration
	for _, n := range r.PerNode {
		slowest = max(slowest, n.IOModelTime+n.TriWall)
	}
	return slowest
}

// Meshes returns the per-node meshes of an extraction run with
// Options.KeepMeshes, in node order.
func (r *Result) Meshes() ([]*geom.Mesh, error) {
	meshes := make([]*geom.Mesh, len(r.PerNode))
	for i, n := range r.PerNode {
		if n.Mesh == nil {
			return nil, fmt.Errorf("cluster: node %d has no mesh; extract with Options{KeepMeshes: true}", n.Node)
		}
		meshes[i] = n.Mesh
	}
	return meshes, nil
}

// Pipeline sizing: the producer packs consecutive query emissions into one
// buffer and hands it over when it holds DefaultBatchRecords records, so only
// an extraction's last batch runs short; DefaultPipelineDepth such buffers
// circulate between the producer and the welding lanes, which is also how
// many full batches the producer may run ahead. With the paper's ~1 KB
// metacell records that bounds each node's record staging near 1 MB
// (depth × batch × recordSize) however many metacells the isosurface touches.
// These are constants, not options: with full-batch hand-offs extraction time
// does not measurably depend on them (DESIGN.md §3).
const (
	DefaultBatchRecords  = 256
	DefaultPipelineDepth = 4
)

// Options controls an extraction. The two Keep values choose the form a
// caller gets the surface in; an extraction with neither only counts.
type Options struct {
	// KeepMeshes retains each node's triangle soup in NodeResult.Mesh
	// (36 B a triangle): the form rendering, the exporters and every direct
	// caller of Extract read.
	KeepMeshes bool
	// KeepChunks retains each node's welded batches, encoded, in
	// NodeResult.Chunks (≈ 11.1 B a triangle): the form the serving tier
	// caches, frames and ships, building soup only for a caller that asks.
	KeepChunks bool
	// Trace records a per-stage span trace of the extraction (index query +
	// block read, stalls, march/weld, expand — one lane per pipeline actor)
	// into Result.Trace, renderable with Trace.Waterfall. Per request, not an
	// always-on metric.
	Trace bool
}

// Extract runs the isosurface query on all nodes in parallel. Each node
// works independently against its own disk with no inter-node communication,
// as a streaming pipeline in which a query producer feeds active metacell
// record batches through a bounded channel to the node's ThreadsPerNode+1
// lanes, which weld them as they arrive — disk I/O and triangulation overlap
// under a fixed record-staging bound — and then, when the meshes are kept,
// gather the welded batches into one soup of exactly the surface's length.
//
// Cancelling ctx aborts the extraction mid-pipeline on every node — the
// producers stop issuing disk reads, the lanes stop welding, and Extract
// returns ctx.Err() with no goroutines left behind.
//
// Extract is safe to call concurrently (the serving layer does): devices are
// shared but internally synchronized, and per-extraction I/O accounting is
// taken as counter deltas rather than resets. Concurrent extractions
// interleave their block accesses on the shared devices, so each NodeResult's
// IOStats then over-attributes the other extractions' I/O to itself;
// single-extraction runs — every paper experiment — are exact.
func (e *Engine) Extract(ctx context.Context, iso float32, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{Iso: iso, PerNode: make([]NodeResult, e.Procs)}
	errs := make([]error, e.Procs)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < e.Procs; i++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			res.PerNode[node], errs[node] = e.extractNodeStreaming(ctx, node, iso, opts)
		}(i)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range res.PerNode {
		res.Active += res.PerNode[i].ActiveMetacells
		res.Triangles += res.PerNode[i].Triangles
	}
	if opts.Trace {
		// Node goroutines start together, so per-node span offsets share the
		// extraction origin to within scheduler noise.
		tr := &obs.Trace{Wall: res.Wall}
		for i := range res.PerNode {
			tr.Spans = append(tr.Spans, res.PerNode[i].spans...)
			res.PerNode[i].spans = nil
		}
		res.Trace = tr
	}
	e.met.recordExtract(res)
	return res, nil
}

// ExtractStep serves the engine as the one time step of a series, step 0:
// it is Extract for step 0 and refuses any other step.
func (e *Engine) ExtractStep(ctx context.Context, step int, iso float32, opts Options) (*Result, error) {
	if step != 0 {
		return nil, fmt.Errorf("cluster: single-step engine has no time step %d", step)
	}
	return e.Extract(ctx, iso, opts)
}

// TimeVaryingEngine distributes m time steps (paper §5.2): per step, one
// compact interval tree per node in memory and that step's bricks striped
// over the nodes' disks. The whole index is O(m·n·log n) — independent of
// the number of cells — so hundreds of steps of one- or two-byte data stay
// within a few megabytes (the paper's 270-step RM index is 1.6 MB).
type TimeVaryingEngine struct {
	Steps map[int]*Engine // keyed by time step
}

// BuildTimeVarying preprocesses the given steps of a time-varying dataset.
// With cfg.Dir set, step s keeps its node disks under Dir/step-<s>.
func BuildTimeVarying(gen func(step int) *volume.Grid, steps []int, cfg Config) (*TimeVaryingEngine, error) {
	tv := &TimeVaryingEngine{Steps: map[int]*Engine{}}
	for _, s := range steps {
		scfg := cfg
		if cfg.Dir != "" {
			scfg.Dir = filepath.Join(cfg.Dir, fmt.Sprintf("step-%d", s))
		}
		eng, err := Build(gen(s), scfg)
		if err != nil {
			tv.Close()
			return nil, fmt.Errorf("cluster: building step %d: %w", s, err)
		}
		tv.Steps[s] = eng
	}
	return tv, nil
}

// ExtractStep runs an isosurface query against one time step.
func (tv *TimeVaryingEngine) ExtractStep(ctx context.Context, step int, iso float32, opts Options) (*Result, error) {
	eng, ok := tv.Steps[step]
	if !ok {
		return nil, fmt.Errorf("cluster: time step %d not indexed", step)
	}
	return eng.Extract(ctx, iso, opts)
}

// IndexSizeBytes returns the packed size of every step's index on every node.
func (tv *TimeVaryingEngine) IndexSizeBytes() int64 {
	var n int64
	for _, eng := range tv.Steps {
		n += eng.IndexSizeBytes()
	}
	return n
}

// Close releases every step's file-backed node disks.
func (tv *TimeVaryingEngine) Close() error {
	var errs []error
	for _, eng := range tv.Steps {
		errs = append(errs, eng.Close())
	}
	return errors.Join(errs...)
}
