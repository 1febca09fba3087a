package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/meshio"
)

// reference is the oracle for one key: the triangle count, length and two
// independent CRCs of the frame a direct extraction encodes to. Keeping the
// 20–60 MB frames themselves would add 370 MB to a heap whose every fresh
// page costs tens of microseconds on this host.
type reference struct {
	tris, size int
	crcC, crcI uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func referenceOf(frame []byte, tris int) reference {
	return reference{tris: tris, size: len(frame),
		crcC: crc32.Checksum(frame, castagnoli), crcI: crc32.ChecksumIEEE(frame)}
}

// inputs is what a run is given before the system is set up: the volume.
// Generating it is the benchmark making its input, not the system's set-up.
type inputs struct {
	vol        *repro.Grid
	genSeconds float64
}

func generate(cfg config) inputs {
	start := time.Now()
	vol := repro.GenerateRM(cfg.nx, cfg.ny, cfg.nz, cfg.step, cfg.dataSeed)
	return inputs{vol: vol, genSeconds: time.Since(start).Seconds()}
}

// env is one workload's system under test, built by setup: the preprocessed
// engine and, for routed workloads, the serving tier over it.
type env struct {
	cfg  config
	w    workload
	in   inputs
	eng  *repro.Engine
	tier *repro.DistCluster // nil for cold_sweep
	wire *countingTransport // what the router's client read off the sockets
	dir  string             // node-disk files of the file-backed engine
	refs []reference
	chk  []*checker // one oracle per client, its frame buffer reused all run

	buildSeconds float64 // repro.Preprocess's share of the set-up
}

// setup builds the workload's system from the volume and reports how long
// that took: repro.Preprocess (metacells, index, striping onto node disks)
// and the tier's start. It is what setup_s measures — everything the program
// does before it can answer its first query.
func setup(cfg config, w workload, in inputs) (*env, float64, error) {
	start := time.Now()
	e := &env{cfg: cfg, w: w, in: in}

	// One producer and one worker goroutine per extraction: the host's two
	// cores. cold_sweep reads its bricks from real files so blockio does
	// what out-of-core means; the tier's engine is memory-backed.
	ecfg := repro.Config{Procs: 1, ThreadsPerNode: 1}
	if !w.routed {
		dir, err := os.MkdirTemp(cfg.outDir, "disks-")
		if err != nil {
			return nil, 0, err
		}
		e.dir, ecfg.Dir = dir, dir
	}
	eng, err := repro.Preprocess(in.vol, ecfg)
	e.buildSeconds = time.Since(start).Seconds()
	if err != nil {
		e.close()
		return nil, 0, fmt.Errorf("preprocess: %w", err)
	}
	e.eng = eng

	if w.routed {
		e.wire = &countingTransport{inner: dist.NewTransport()}
		// Router and replica defaults (verify on, no hedge, links unpaced)
		// but for the attempt timeout; only the cache budget differs between
		// the two routed workloads.
		tier, err := repro.StartDistCluster(repro.EngineBackend(eng), repro.DistConfig{
			Replicas: 2,
			Replica:  repro.ReplicaConfig{Serve: repro.ServeConfig{CacheBytes: w.cacheBytes(cfg)}},
			Router: repro.RouterConfig{
				Client: &http.Client{Transport: e.wire},
				// The default 30 s would turn one long stall of the host (they
				// happen here) into a failed request instead of a slow one.
				AttemptTimeout: 2 * time.Minute,
			},
		})
		if err != nil {
			e.close()
			return nil, 0, fmt.Errorf("starting tier: %w", err)
		}
		e.tier = tier
	}
	return e, time.Since(start).Seconds(), nil
}

// extractReferences builds the oracle: each key extracted directly, with
// the public call, and the checksums of the frame it encodes to.
func (e *env) extractReferences(ctx context.Context) error {
	e.refs = make([]reference, len(isovalues))
	var frame []byte
	for k, iso := range isovalues {
		res, err := e.eng.Extract(ctx, iso, repro.Options{KeepMeshes: true})
		if err != nil {
			return fmt.Errorf("reference extraction at %v: %w", iso, err)
		}
		frame = meshio.AppendBinary(frame[:0], iso, nodeMeshes(res)...)
		e.refs[k] = referenceOf(frame, res.Triangles)
	}
	e.chk = make([]*checker, e.w.clients)
	for c := range e.chk {
		e.chk[c] = &checker{refs: e.refs, seen: make([]int, len(e.refs))}
	}
	e.chk[0].buf = frame // sized by the largest mesh; the others grow on first use
	e.cfg.collect()
	return nil
}

func (e *env) close() {
	if e.tier != nil {
		e.tier.Close()
		e.wire.inner.CloseIdleConnections()
	}
	if e.eng != nil {
		e.eng.Close() //nolint:errcheck // read-only files
	}
	if e.dir != "" {
		os.RemoveAll(e.dir) //nolint:errcheck // scratch
	}
}

func nodeMeshes(res *repro.Result) []*repro.Mesh {
	meshes := make([]*repro.Mesh, len(res.PerNode))
	for i := range res.PerNode {
		meshes[i] = res.PerNode[i].Mesh
	}
	return meshes
}

// response is what one request put in the client's hands.
type response struct {
	iso      float32
	meshes   []*repro.Mesh
	tris     int
	attempts int           // replicas the router tried (routed only)
	result   *repro.Result // the extraction's own report (cold_sweep only)
}

// request issues key through the workload's public entry point and blocks
// until the whole mesh is back.
func (e *env) request(ctx context.Context, key int) (response, error) {
	iso := isovalues[key]
	if e.w.routed {
		r, err := e.tier.Router.Query(ctx, 0, iso)
		if err != nil {
			return response{}, err
		}
		return response{iso: r.Iso, meshes: []*repro.Mesh{r.Mesh}, tris: r.Mesh.Len(), attempts: r.Route.Attempts}, nil
	}
	res, err := e.eng.Extract(ctx, iso, repro.Options{KeepMeshes: true})
	if err != nil {
		return response{}, err
	}
	return response{iso: iso, meshes: nodeMeshes(res), tris: res.Triangles, result: res}, nil
}

// countingTransport counts the response-body bytes the router's HTTP client
// reads, which is the frame bytes the client side of the tier received.
type countingTransport struct {
	inner *http.Transport
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	if err == nil && req.URL.Path == "/mesh" { // not the health probes
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// spanFile is where a traced pass writes its spans.
func spanFile(cfg config, w workload) string {
	return filepath.Join(cfg.outDir, "trace-"+w.name+".json")
}
