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
// marching-cubes workers, overlapping disk I/O with triangulation while
// staging at most Options.PipelineDepth × Options.BatchRecords records in
// memory (the paper's original retrieve-everything-then-triangulate schedule
// survives as Engine.ExtractTwoPhase, the reference the pipeline is tested
// against). Config.CacheBlocks adds an
// LRU block cache over each node's disk for repeated sweeps such as
// animation or isovalue scans. Extraction takes a context.Context; cancelling
// it aborts the pipeline mid-stream on every node.
//
// For many concurrent clients, wrap an engine in a Server (NewServer /
// NewTimeVaryingServer): concurrent requests for the same (time step,
// quantized isovalue) are coalesced into one extraction, completed meshes are
// kept in a byte-budgeted LRU cache, and admission control bounds in-flight
// work, shedding excess load with ErrSaturated.
//
// To scale the service out, shard it: StartDistCluster spawns N replica
// servers on loopback sockets behind a consistent-hashing Router, or compose
// the pieces yourself — NewReplicaServer puts one Server behind an HTTP
// endpoint speaking the binary mesh wire format (EncodeMeshBinary /
// DecodeMeshBinary), and NewRouter fronts any set of replica addresses with
// shard-affine routing, health probes, and saturation-aware failover.
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
	"io"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/composite"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/serve"
	"repro/internal/unstructured"
	"repro/internal/volume"
)

// Re-exported core types. Aliases keep the internal packages private while
// giving users a complete, importable surface.
type (
	// Grid is a regular scalar volume (see GenerateRM and the Generate*
	// helpers, or build one sample-by-sample with volume accessors).
	Grid = volume.Grid
	// Format selects a grid's scalar storage width.
	Format = volume.Format
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
	// NodeResult is one node's share of an extraction.
	NodeResult = cluster.NodeResult
	// Mesh is a triangle soup produced by extraction.
	Mesh = geom.Mesh
	// Triangle is one isosurface triangle.
	Triangle = geom.Triangle
	// Vec3 is a single-precision 3-vector.
	Vec3 = geom.Vec3
	// Framebuffer is a color+depth image.
	Framebuffer = render.Framebuffer
	// Camera is a perspective look-at camera.
	Camera = render.Camera
	// Tile is one display server's region of the tiled wall.
	Tile = composite.Tile
	// IndexedMesh is a welded mesh ready for export (OBJ/STL/PLY).
	IndexedMesh = meshio.IndexedMesh
	// TetMesh is an unstructured tetrahedral grid with per-vertex scalars.
	TetMesh = unstructured.Mesh
	// TetIndex accelerates isosurface extraction over a TetMesh.
	TetIndex = unstructured.Index
	// Server is the concurrent query service: request coalescing, mesh
	// cache, admission control (see NewServer / NewTimeVaryingServer).
	Server = serve.Server
	// ServeConfig sizes a Server (in-flight limit, queue depth, cache
	// budget, isovalue quantum).
	ServeConfig = serve.Config
	// ServeStats is a snapshot of a Server's counters.
	ServeStats = serve.Stats
	// ServeResponse is one served query result.
	ServeResponse = serve.Response
	// ServeKey is the (time step, quantized isovalue) coalescing/cache key.
	ServeKey = serve.Key
	// Metrics is a named registry of counters, gauges, and latency
	// histograms. Pass one registry via Config.Metrics and ServeConfig.Metrics
	// so engine and server expose on the same page (see MetricsHandler).
	Metrics = obs.Registry
	// MetricsHistogram is a fixed-memory log-bucketed latency histogram.
	MetricsHistogram = obs.Histogram
	// Trace is the per-stage timing breakdown of one extraction, recorded
	// when Options.Trace (or ServeConfig.Trace) is set; Trace.Waterfall
	// renders it.
	Trace = obs.Trace
	// TraceSpan is one stage of a Trace.
	TraceSpan = obs.Span
	// ServeBackend is what a Server extracts from; EngineBackend and
	// TimeVaryingBackend adapt the two engine kinds.
	ServeBackend = serve.Backend
	// Replica is one shard of the distributed serving tier: a Server behind
	// an HTTP endpoint speaking the binary mesh wire format.
	Replica = dist.Replica
	// ReplicaConfig sizes a Replica (HTTP admission, modeled NIC rate).
	ReplicaConfig = dist.ReplicaConfig
	// Router is the shard-aware front end: consistent-hash routing with
	// health probes and saturation-aware failover along the ring.
	Router = dist.Router
	// RouterConfig sizes a Router (replica addresses, ring, probing).
	RouterConfig = dist.RouterConfig
	// RouterStats is a snapshot of a Router's counters and health view.
	RouterStats = dist.RouterStats
	// RouterResponse is one routed, decoded query result.
	RouterResponse = dist.Response
	// DistConfig sizes an in-process distributed tier (see StartDistCluster).
	DistConfig = dist.ClusterConfig
	// DistCluster is a running tier: N replicas plus the router over them.
	DistCluster = dist.Cluster
)

// ErrSaturated is returned by Server.Query when admission control sheds the
// request (and by Router queries when every candidate replica shed).
var ErrSaturated = serve.ErrSaturated

// ErrNoReplicas is returned by Router queries when the tier is unreachable —
// every candidate replica was down or failed at the transport.
var ErrNoReplicas = dist.ErrNoReplicas

// MeshContentType is the media type replicas and routers serve binary mesh
// frames under.
const MeshContentType = dist.MeshContentType

// Scalar storage formats.
const (
	U8  = volume.U8
	U16 = volume.U16
	F32 = volume.F32
)

// Default sizing of the streaming extraction pipeline (see Options).
const (
	DefaultBatchRecords  = cluster.DefaultBatchRecords
	DefaultPipelineDepth = cluster.DefaultPipelineDepth
)

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

// NewServer wraps a single-time-step engine in a concurrent query service;
// queries address it as time step 0.
func NewServer(eng *Engine, cfg ServeConfig) *Server { return serve.NewServer(eng, cfg) }

// NewTimeVaryingServer serves every indexed step of a time-varying engine.
func NewTimeVaryingServer(tv *TimeVaryingEngine, cfg ServeConfig) *Server {
	return serve.NewTimeVaryingServer(tv, cfg)
}

// EngineBackend adapts a single-time-step engine for a Server or the
// distributed tier; queries address it as time step 0.
func EngineBackend(eng *Engine) ServeBackend { return serve.AsBackend(eng) }

// TimeVaryingBackend adapts a time-varying engine likewise.
func TimeVaryingBackend(tv *TimeVaryingEngine) ServeBackend { return serve.AsTimeVaryingBackend(tv) }

// NewReplicaServer mounts a query service behind the replica HTTP surface:
// GET /mesh serves binary frames, overload sheds as 503 + Retry-After, and
// /metrics, /statusz and /debug/pprof expose the server's registry.
func NewReplicaServer(srv *Server, cfg ReplicaConfig) *Replica {
	return dist.NewReplicaServer(srv, cfg)
}

// NewRouter fronts a set of replica addresses with consistent-hash routing:
// each (time step, quantized isovalue) key has a home replica whose mesh
// cache stays hot on it, saturation and transport errors fail over along the
// hash ring, and background probes route around dead replicas. The request
// path is hardened per RouterConfig: per-attempt timeouts, checksum-verified
// frames retried on the ring successor, hedged requests past HedgeAfter,
// Retry-After-honoring saturation backoff, and cooldown-based passive
// revival of marked-down replicas.
func NewRouter(cfg RouterConfig) (*Router, error) { return dist.NewRouter(cfg) }

// StartDistCluster spawns cfg.Replicas replica servers over one backend on
// loopback listeners and a Router across them — a whole serving tier over
// real sockets in one call (cmd/isoserve -replicas and the scaling
// experiment both drive this).
func StartDistCluster(backend ServeBackend, cfg DistConfig) (*DistCluster, error) {
	return dist.StartCluster(backend, cfg)
}

// EncodeMeshBinary encodes meshes (concatenated in order) into one
// length-prefixed binary wire frame, the format replicas serve.
func EncodeMeshBinary(iso float32, meshes ...*Mesh) []byte {
	return meshio.EncodeBinary(iso, meshes...)
}

// EncodeMeshBinaryChecksum is EncodeMeshBinary with a CRC32-C trailer
// (flagged in the frame header) so in-flight corruption is detectable —
// the variant the serving tier's replicas emit.
func EncodeMeshBinaryChecksum(iso float32, meshes ...*Mesh) []byte {
	return meshio.EncodeBinaryChecksum(iso, meshes...)
}

// VerifyMeshBinary checks a frame's structure, and its checksum when the
// frame carries one, without decoding the geometry.
func VerifyMeshBinary(data []byte) error { return meshio.VerifyBinary(data) }

// DecodeMeshBinary strictly decodes a binary wire frame. It is safe on
// untrusted input: any truncation, corruption, or hostile length field
// yields an error, never a panic or an unbounded allocation (checksummed
// frames are verified first).
func DecodeMeshBinary(data []byte) (*Mesh, float32, error) { return meshio.DecodeBinary(data) }

// ReadMeshBinary reads and decodes one binary frame from r, rejecting frames
// over maxBytes before allocating (0 = the codec's 1 GiB default).
func ReadMeshBinary(r io.Reader, maxBytes int) (*Mesh, float32, error) {
	return meshio.ReadBinary(r, maxBytes)
}

// RenderComposite renders each node's mesh on its own (software) GPU and
// z-composites the framebuffers sort-last, returning the merged image. The
// extraction must have been run with Options.KeepMeshes.
func RenderComposite(res *Result, w, h int) (*Framebuffer, error) {
	meshes, err := res.Meshes()
	if err != nil {
		return nil, err
	}
	fbs, _ := render.DrawNodes(meshes, w, h, true)
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
	fbs, _ := render.DrawNodes(meshes, w, h, true)
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

// IndexMesh welds a triangle soup into an indexed mesh with shared vertices,
// ready for WriteFile(".obj"/".stl"/".ply").
func IndexMesh(m *Mesh) *IndexedMesh { return meshio.Index(m) }

// TetMeshFromGrid converts a regular grid into a conforming tetrahedral mesh
// (six tets per cell), the entry point of the unstructured pipeline.
func TetMeshFromGrid(g *Grid) *TetMesh { return unstructured.FromGrid(g) }

// NewTetIndex builds the cluster interval index over a tetrahedral mesh.
func NewTetIndex(m *TetMesh, clusterSize int) (*TetIndex, error) {
	return unstructured.NewIndex(m, clusterSize)
}
