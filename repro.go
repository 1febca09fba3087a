// Package repro is the public API of the out-of-core parallel isosurface
// extraction and rendering library, a reproduction of Wang, JaJa & Varshney,
// "An Efficient and Scalable Parallel Algorithm for Out-of-Core Isosurface
// Extraction and Rendering" (IPDPS 2006).
//
// The library preprocesses large scalar volumes into metacells indexed by a
// compact interval tree, distributes the data across the local disks of a
// (simulated) visualization cluster with per-brick striping, extracts
// isosurfaces with provably balanced per-node work and I/O-optimal disk
// access, renders each node's triangles with a software z-buffer rasterizer,
// and composites the framebuffers sort-last onto a tiled display.
//
// Extraction runs each node as a streaming pipeline: a query producer feeds
// block-aligned record batches through a bounded channel to the node's
// ThreadsPerNode+1 marching-cubes lanes, overlapping disk I/O with
// triangulation while staging at most four batches of DefaultBatchRecords
// records in memory; a kept surface is then gathered by the same lanes into
// one soup of exactly its length, byte for byte the mesh of the paper's
// retrieve-everything-then-triangulate schedule.
// Config.CacheBlocks adds an LRU block cache over each node's disk for
// repeated sweeps such as animation or isovalue scans. Extraction takes a
// context.Context; cancelling it aborts the pipeline mid-stream on every node.
//
// For many concurrent clients, put either engine kind behind a Server
// (NewServer): concurrent requests for the same (time step,
// quantized isovalue) are coalesced into one extraction, completed meshes are
// kept in a byte-budgeted cache that evicts by frequency and size — as the
// extraction's welded batches, encoded (Options.KeepChunks), not as soup —
// and admission control bounds in-flight work, shedding excess load with
// ErrSaturated.
//
// To scale the service out, shard it: StartDistCluster spawns N replica
// servers on loopback sockets, each one Server behind an HTTP endpoint
// speaking the binary mesh wire format, behind a consistent-hashing router
// with shard-affine routing and failover on saturation and on failed attempts.
//
// Quick start:
//
//	vol := repro.GenerateRM(256, 256, 240, 250, 42) // synthetic RM time step
//	eng, err := repro.Preprocess(vol, repro.Config{Procs: 4})
//	// handle err
//	res, err := eng.Extract(ctx, 190, repro.Options{KeepMeshes: true})
//	// handle err
//	img, err := repro.RenderComposite(res, 1024, 768)
//	// handle err
//	err = img.WritePPMFile("isosurface.ppm")
//
// The deeper machinery lives in internal packages (see DESIGN.md for the
// map); this package re-exports the types a downstream user needs.
package repro

import (
	"net/http"

	"repro/internal/cluster"
	"repro/internal/composite"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/serve"
	"repro/internal/volume"
)

// Re-exported core types. Aliases keep the internal packages private while
// giving users a complete, importable surface.
type (
	// Grid is a regular scalar volume (see GenerateRM and the Generate*
	// helpers, or build one sample-by-sample with volume accessors).
	Grid = volume.Grid
	// Config controls preprocessing and data distribution.
	Config = cluster.Config
	// Engine is a preprocessed dataset distributed across node-local disks.
	Engine = cluster.Engine
	// TimeVaryingEngine holds multiple preprocessed time steps.
	TimeVaryingEngine = cluster.TimeVaryingEngine
	// Options controls an extraction.
	Options = cluster.Options
	// Result is the outcome of one parallel extraction.
	Result = cluster.Result
	// Mesh is a triangle soup produced by extraction.
	Mesh = geom.Mesh
	// Framebuffer is a color+depth image.
	Framebuffer = render.Framebuffer
	// Tile is one display server's region of the tiled wall.
	Tile = composite.Tile
	// IndexedMesh is a welded triangle mesh, shared vertices plus index
	// triples: what extraction welds into and what WriteMesh exports.
	IndexedMesh = geom.IndexedMesh
	// Server is the concurrent query service: request coalescing, mesh
	// cache, admission control (see NewServer).
	Server = serve.Server
	// ServeConfig sizes a Server (in-flight limit, queue depth, cache
	// budget).
	ServeConfig = serve.Config
	// ServeResponse is one served query result.
	ServeResponse = serve.Response
	// Metrics is a named registry of counters, gauges, and latency
	// histograms. Pass one registry via Config.Metrics and ServeConfig.Metrics
	// so engine and server expose on the same page (see MetricsHandler).
	Metrics = obs.Registry
	// ServeBackend is what a Server or the distributed tier extracts from:
	// an *Engine (time step 0) or a *TimeVaryingEngine.
	ServeBackend = serve.Backend
	// ReplicaConfig sizes a Replica (HTTP admission).
	ReplicaConfig = dist.ReplicaConfig
	// RouterConfig sizes a Router (replica addresses, attempts, hedging, cooldown).
	RouterConfig = dist.RouterConfig
	// RouterStats is a snapshot of a Router's counters and health view.
	RouterStats = dist.RouterStats
	// DistConfig sizes an in-process distributed tier (see StartDistCluster).
	DistConfig = dist.ClusterConfig
	// DistCluster is a running tier: N replicas plus the router over them.
	DistCluster = dist.Cluster
)

// ErrSaturated is returned by Server.Query when admission control sheds the
// request (and by Router queries when every candidate replica shed).
var ErrSaturated = serve.ErrSaturated

// Scalar storage formats.
const (
	U8  = volume.U8
	U16 = volume.U16
	F32 = volume.F32
)

// DefaultBatchRecords is the number of metacell records per hand-off of the
// streaming extraction pipeline.
const DefaultBatchRecords = cluster.DefaultBatchRecords

// GenerateRM produces one time step of the deterministic synthetic
// Richtmyer–Meshkov stand-in dataset (see DESIGN.md §2 for how it
// substitutes for the LLNL original).
func GenerateRM(nx, ny, nz, step int, seed uint64) *Grid {
	return volume.RichtmyerMeshkov(nx, ny, nz, step, seed)
}

// GenerateSphere produces an n³ test volume whose isosurfaces are spheres.
func GenerateSphere(n int) *Grid { return volume.Sphere(n) }

// GenerateTorus produces an n³ test volume whose mid-range isosurfaces are
// tori.
func GenerateTorus(n int) *Grid { return volume.Torus(n) }

// Preprocess extracts metacells from a volume, builds the compact interval
// tree, and stripes the bricks across cfg.Procs node-local disks.
func Preprocess(g *Grid, cfg Config) (*Engine, error) { return cluster.Build(g, cfg) }

// PreprocessTimeVarying preprocesses several time steps produced by gen.
func PreprocessTimeVarying(gen func(step int) *Grid, steps []int, cfg Config) (*TimeVaryingEngine, error) {
	return cluster.BuildTimeVarying(gen, steps, cfg)
}

// TimeVaryingRM returns a generator for the synthetic RM dataset, for use
// with PreprocessTimeVarying.
func TimeVaryingRM(nx, ny, nz int, seed uint64) func(step int) *Grid {
	return volume.TimeVaryingRM(nx, ny, nz, seed)
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// MetricsHandler serves a registry over HTTP: Prometheus text on /metrics,
// an indented-JSON snapshot on /statusz, and the runtime profiles on
// /debug/pprof/.
func MetricsHandler(m *Metrics) http.Handler { return obs.NewHandler(m) }

// NewServer puts a backend — an *Engine or a *TimeVaryingEngine — behind a
// concurrent query service.
func NewServer(b ServeBackend, cfg ServeConfig) *Server { return serve.New(b, cfg) }

// EngineBackend returns eng as a backend for a Server or the distributed
// tier; queries address it as time step 0.
func EngineBackend(eng *Engine) ServeBackend { return eng }

// StartDistCluster spawns cfg.Replicas replica servers over one backend on
// loopback listeners and a Router across them — a whole serving tier over
// real sockets in one call (cmd/isoserve -replicas and the scaling
// experiment both drive this).
func StartDistCluster(backend ServeBackend, cfg DistConfig) (*DistCluster, error) {
	return dist.StartCluster(backend, cfg)
}

// RenderComposite renders each node's mesh on its own (software) GPU and
// z-composites the framebuffers sort-last, returning the merged image. The
// extraction must have been run with Options.KeepMeshes.
func RenderComposite(res *Result, w, h int) (*Framebuffer, error) {
	meshes, err := res.Meshes()
	if err != nil {
		return nil, err
	}
	fbs, _ := render.DrawNodes(meshes, render.FitNodes(meshes, w, h))
	merged, _, err := composite.ZComposite(fbs...)
	return merged, err
}

// RenderWall runs the full sort-last pipeline onto a tilesX×tilesY display
// wall, returning the per-display tiles (the paper's four-projector wall is
// 2×2).
func RenderWall(res *Result, w, h, tilesX, tilesY int) ([]Tile, error) {
	meshes, err := res.Meshes()
	if err != nil {
		return nil, err
	}
	fbs, _ := render.DrawNodes(meshes, render.FitNodes(meshes, w, h))
	tiles, _, err := composite.SortLast(fbs, tilesX, tilesY)
	return tiles, err
}

// AssembleWall stitches display tiles back into a single image for saving.
func AssembleWall(tiles []Tile, tilesX, tilesY int) (*Framebuffer, error) {
	return composite.Assemble(tiles, tilesX, tilesY)
}

// MergeMeshes concatenates the per-node meshes of an extraction (run with
// Options.KeepMeshes) into one triangle soup.
func MergeMeshes(res *Result) (*Mesh, error) {
	meshes, err := res.Meshes()
	if err != nil {
		return nil, err
	}
	var out Mesh
	for _, m := range meshes {
		out.Append(m.Tris...)
	}
	return &out, nil
}

// IndexMesh welds triangle soups, in order, into one indexed mesh with shared
// vertices: an extraction's per-node meshes (Result.Meshes) weld to the same
// mesh as their MergeMeshes soup.
func IndexMesh(meshes ...*Mesh) *IndexedMesh { return meshio.Index(meshes...) }

// WriteMesh writes an indexed mesh to path in the format its extension names
// (.obj, .stl or .ply). An unknown extension fails before the file is created.
func WriteMesh(path string, im *IndexedMesh) error { return meshio.WriteFile(path, im) }
