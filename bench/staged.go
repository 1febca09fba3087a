package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro"
	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/march"
	"repro/internal/meshio"
	"repro/internal/metacell"
	"repro/internal/serve"
)

// layerMetric names one per-layer metric and its unit. Every traced pass
// emits all of them; a layer the workload's requests never reach reads 0.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	// Set-up, by the layer that does it.
	{"volume.gen_s", "s"}, {"metacell.extract_s", "s"}, {"core.plan_s", "s"},
	{"core.materialize_s", "s"}, {"cluster.build_s", "s"},
	{"core.index_kb", "KB"}, {"cluster.data_mb", "MB"},
	// The engine's stages, replayed one after another (cold_sweep).
	{"core.query_ms", "ms"}, {"core.active_metacells_per_req", "count"}, {"core.batches_per_req", "count"},
	{"blockio.read_ms", "ms"}, {"blockio.reads_per_req", "count"}, {"blockio.blocks_per_req", "count"},
	{"blockio.seeks_per_req", "count"}, {"blockio.modeled_io_ms", "ms"},
	{"metacell.decode_ms", "ms"}, {"metacell.decode_ns_per_rec", "ns"},
	{"march.weld_ms", "ms"}, {"march.ns_per_active_cell", "ns"}, {"march.tris_per_req", "count"},
	{"geom.expand_ms", "ms"}, {"geom.verts_per_tri", "ratio"},
	// The pipelined extraction as the engine itself reports it.
	{"cluster.extract_ms", "ms"}, {"cluster.staged_sum_ms", "ms"}, {"cluster.overlap_ratio", "ratio"},
	{"cluster.producer_stall_ms", "ms"}, {"cluster.consumer_stall_ms", "ms"}, {"cluster.peak_buffered_kb", "KB"},
	{"cluster.tri_balance_p4", "ratio"}, {"cluster.metacell_balance_p4", "ratio"},
	// The serving tier's stages (routed workloads).
	{"serve.hit_us", "us"}, {"serve.miss_ms", "ms"}, {"serve.hit_rate", "ratio"},
	{"serve.coalesced_share", "ratio"}, {"serve.evictions_per_req", "count"}, {"serve.rejected", "count"},
	{"serve.cache_mb_per_mesh", "MB"}, {"serve.cached_meshes", "count"},
	{"meshio.encode_crc_ms", "ms"}, {"meshio.verify_ms", "ms"}, {"meshio.decode_ms", "ms"},
	{"meshio.frame_bytes_per_tri", "B"},
	{"dist.replica_http_ms", "ms"}, {"dist.wire_ms", "ms"}, {"dist.router_overhead_ms", "ms"},
	{"dist.attempts_per_req", "count"}, {"dist.failovers", "count"}, {"dist.retries", "count"},
	{"dist.corrupt_frames", "count"}, {"dist.modeled_link_ms", "ms"},
	// The harness and the runtime under it.
	{"client.latency_ms_tail", "ms"}, {"client.tail_pct", "%"}, {"client.latency_ms_max", "ms"},
	{"client.samples", "count"},
	{"trace.overhead_share", "ratio"}, {"trace.unaccounted_share", "ratio"}, {"bench.warmup_s", "s"},
	{"runtime.gc_cycles_per_req", "count"}, {"runtime.peak_heap_mb", "MB"}, {"runtime.cpu_ms_per_req", "ms"},
}

// layerValues collects a traced pass's readings; put refuses a name that is
// not in layerMetrics.
type layerValues map[string]float64

func (v layerValues) put(name string, x float64) {
	for _, lm := range layerMetrics {
		if lm.name == name {
			v[name] = x
			return
		}
	}
	panic("bench: " + name + " is not a per-layer metric")
}

// modeledLinkBytesPerSec is the NIC rate dist.modeled_link_ms is computed
// at: the 25 MB/s the repository's scaling experiment paces replica links to.
const modeledLinkBytesPerSec = 25e6

// traced is the traced pass, always a separate run from the one the
// end-to-end numbers come from. Half its time is an untraced closed loop, as
// in the end-to-end pass, for the client-side percentiles and the counters
// the layers keep themselves; the other half replays requests one stage at a
// time, through the same public calls the request path makes, with a span
// around each.
func traced(ctx context.Context, cfg config, w workload, seed int64, st settings) (result, error) {
	e, _, err := setup(cfg, w, generate(cfg))
	if err != nil {
		return result{}, err
	}
	defer e.close()
	if err := e.extractReferences(ctx); err != nil {
		return result{}, err
	}
	v := layerValues{}
	if err := e.setupLayers(ctx, v); err != nil {
		return result{}, err
	}
	warm, err := steady(ctx, e, seed)
	if err != nil {
		return result{}, err
	}
	v.put("bench.warmup_s", warm)

	u := e.runPhase(ctx, seed, phaseTimed, cfg.seconds/2, cfg.maxRequests)
	if u.attempted == 0 {
		return result{}, fmt.Errorf("%s: no request finished in %.1fs", w.name, cfg.seconds/2)
	}
	e.harnessLayers(u, v)

	rec := newRecorder()
	var t phase
	if w.routed {
		e.tierCounters(u, v)
		t, err = e.stageTier(ctx, rec, seed, u, v)
	} else {
		e.pipelineReport(u, v)
		t, err = e.stageCold(ctx, rec, seed, v)
	}
	if err != nil {
		return result{}, err
	}

	// What the staging itself costs: a traced request against the same
	// key's untraced median, and the part of a traced request no stage owns.
	// On cold_sweep the first is also staged against pipelined: the same
	// work with and without the engine's overlap.
	uMed := u.keyMedians()
	self := rec.selfTimes()
	var staged []float64
	var rootSelf, untraced float64
	for i, s := range rec.spans {
		if s.Parent < 0 {
			staged = append(staged, float64(s.dur())/1e6)
			rootSelf += float64(self[i]) / 1e6
			untraced += uMed[t.samples[s.Request].key]
		}
	}
	v.put("trace.unaccounted_share", rootSelf/sum(staged))
	if untraced > 0 {
		v.put("trace.overhead_share", sum(staged)/untraced-1)
	}
	if !w.routed && untraced > 0 {
		v.put("cluster.staged_sum_ms", median(staged))
		v.put("cluster.overlap_ratio", sum(staged)/untraced)
	}

	if err := rec.write(spanFile(cfg, w), traceFile{Workload: w.name, Seed: seed, Settings: st}); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	m := metrics{}
	for _, lm := range layerMetrics {
		m.set(lm.name, lm.unit, v[lm.name])
	}
	attempted, failed := u.attempted+t.attempted, u.failed+t.failed
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// setupLayers times preprocessing one layer at a time, through the calls
// repro.Preprocess makes, and reads the sizes it leaves behind.
func (e *env) setupLayers(ctx context.Context, v layerValues) error {
	v.put("volume.gen_s", e.in.genSeconds)
	v.put("cluster.build_s", e.buildSeconds)
	t0 := time.Now()
	layout, cells := metacell.Extract(e.in.vol, metacell.DefaultSpan)
	v.put("metacell.extract_s", time.Since(t0).Seconds())
	t0 = time.Now()
	plan := core.Plan(cells)
	v.put("core.plan_s", time.Since(t0).Seconds())
	t0 = time.Now()
	if _, err := plan.MaterializeStriped(layout, cells, []core.RecordWriter{blockio.NewWriter()}); err != nil {
		return fmt.Errorf("staged materialize: %w", err)
	}
	v.put("core.materialize_s", time.Since(t0).Seconds())
	var index int64
	for n := 0; n < e.eng.Procs; n++ {
		index += e.eng.Tree(n).IndexSizeBytes()
	}
	v.put("core.index_kb", float64(index)/1024)
	v.put("cluster.data_mb", float64(e.eng.DataBytes)/1e6)

	if e.w.routed {
		return nil
	}
	// Work balance across four nodes (the paper's Tables 6–7), as counts:
	// four nodes on two cores have no meaningful wall time. Worst isovalue
	// of the sweep, max over nodes ÷ mean.
	eng4, err := repro.Preprocess(e.in.vol, repro.Config{Procs: 4})
	if err != nil {
		return fmt.Errorf("preprocess for 4 nodes: %w", err)
	}
	var triBal, cellBal float64
	for _, iso := range isovalues {
		res, err := eng4.Extract(ctx, iso, repro.Options{})
		if err != nil {
			return fmt.Errorf("4-node extraction at %v: %w", iso, err)
		}
		var maxTri, maxCell int
		for _, n := range res.PerNode {
			maxTri, maxCell = max(maxTri, n.Triangles), max(maxCell, n.ActiveMetacells)
		}
		triBal = max(triBal, float64(maxTri*len(res.PerNode))/float64(res.Triangles))
		cellBal = max(cellBal, float64(maxCell*len(res.PerNode))/float64(res.Active))
	}
	v.put("cluster.tri_balance_p4", triBal)
	v.put("cluster.metacell_balance_p4", cellBal)
	return nil
}

// harnessLayers reports the untraced loop's tail and the runtime's cost. The
// tail is the highest percentile with ten samples beyond it, whatever the
// sample count turns out to be, and says which percentile that is.
func (e *env) harnessLayers(u phase, v layerValues) {
	lat := sorted(u.latencies())
	n := len(lat)
	tail := max(0, n-11)
	v.put("client.latency_ms_tail", lat[tail])
	v.put("client.tail_pct", 100*float64(tail+1)/float64(n))
	v.put("client.latency_ms_max", lat[n-1])
	v.put("client.samples", float64(n))
	v.put("runtime.gc_cycles_per_req", float64(u.gcCycles)/float64(n))
	v.put("runtime.peak_heap_mb", u.heapSysMB)
	v.put("runtime.cpu_ms_per_req", ms(u.cpu)/float64(n))
}

// pipelineReport reads what Engine.Extract reported about its own pipeline
// during the untraced loop.
func (e *env) pipelineReport(u phase, v layerValues) {
	var pstall, cstall, peak []float64
	for _, s := range u.samples {
		pstall = append(pstall, ms(s.producerStall))
		cstall = append(cstall, ms(s.consumerStall))
		peak = append(peak, float64(s.peakBuffered)/1024)
	}
	v.put("cluster.extract_ms", median(u.latencies()))
	v.put("cluster.producer_stall_ms", median(pstall))
	v.put("cluster.consumer_stall_ms", median(cstall))
	v.put("cluster.peak_buffered_kb", median(peak))
}

// tierCounters reads the serve and router counters' movement over the
// untraced loop.
func (e *env) tierCounters(u phase, v layerValues) {
	reqs := float64(u.serve.Requests)
	if reqs > 0 {
		v.put("serve.hit_rate", float64(u.serve.CacheHits)/reqs)
		v.put("serve.coalesced_share", float64(u.serve.Coalesced)/reqs)
		v.put("serve.evictions_per_req", float64(u.serve.Evictions)/reqs)
	}
	v.put("serve.rejected", float64(u.serve.Rejected))
	v.put("serve.cached_meshes", float64(u.serve.CachedMeshes))
	if u.serve.CachedMeshes > 0 {
		v.put("serve.cache_mb_per_mesh", float64(u.serve.CachedBytes)/1e6/float64(u.serve.CachedMeshes))
	}
	var attempts float64
	for _, s := range u.samples {
		attempts += float64(s.attempts)
	}
	v.put("dist.attempts_per_req", attempts/float64(len(u.samples)))
	v.put("dist.failovers", float64(u.router.Failovers))
	v.put("dist.retries", float64(u.router.Retries))
	v.put("dist.corrupt_frames", float64(u.router.CorruptFrames))
}

// stagedLoop runs one staged request after another from the traced stream
// until half the run's time (or its request cap) is spent. stage performs
// request i for key and returns the mesh it ended with, which the oracle
// checks like any response.
func (e *env) stagedLoop(seed int64, stage func(i, key int) (response, error)) (phase, error) {
	var t phase
	st := newStream(e.w, seed, phaseTraced, 0)
	deadline := time.Now().Add(time.Duration(e.cfg.seconds / 2 * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) && (e.cfg.maxRequests <= 0 || i < e.cfg.maxRequests); i++ {
		key := st.next()
		resp, err := stage(i, key)
		if err != nil {
			return t, fmt.Errorf("staged request %d (key %d): %w", i, key, err)
		}
		t.samples = append(t.samples, sample{key: key, tris: resp.tris, ok: e.chk[0].check(key, resp)})
		e.cfg.collect()
	}
	t.tally()
	if t.attempted == 0 {
		return t, fmt.Errorf("%s: no staged request finished", e.w.name)
	}
	return t, nil
}

// stageCold replays Engine.Extract one stage at a time on node 0: index walk
// and block reads, record decode, welded marching cubes, expansion to soup.
// The pipeline overlaps these; here they run back to back, batch by batch,
// so each has a span of its own. The mesh that comes out must be the bytes
// Extract produced, or the pass fails.
func (e *env) stageCold(ctx context.Context, rec *recorder, seed int64, v layerValues) (phase, error) {
	layout, tree := e.eng.Layout, e.eng.Tree(0)
	recSize := layout.RecordSize()
	var cur struct{ parent, request int }
	dev := blockio.WithReadObserver(e.eng.Device(0), func(_ int, d time.Duration) {
		rec.add("blockio.read", cur.parent, cur.request, d)
	})
	var (
		staging   []byte // the active records of one request, batch after batch
		batchRecs []int
		metas     = make([]metacell.Meta, repro.DefaultBatchRecords)
		welder    march.Welder
		batchMesh []*geom.IndexedMesh

		active, batches, reads, blocks, seeks, modeled []float64
		records, cells, tris, verts                    float64
	)
	t, err := e.stagedLoop(seed, func(i, key int) (response, error) {
		iso := isovalues[key]
		io0 := dev.Stats()
		root := rec.begin("request", -1, i)

		q := rec.begin("core.query", root, i)
		cur.parent, cur.request = q, i
		staging, batchRecs = staging[:0], batchRecs[:0]
		qs, err := tree.QueryBatches(dev, iso, repro.DefaultBatchRecords, func(batch []byte, nrec int) error {
			staging = append(staging, batch...) // the pipeline copies each batch too
			batchRecs = append(batchRecs, nrec)
			return nil
		})
		rec.end(q)
		if err != nil {
			return response{}, err
		}

		off, reqTris := 0, 0
		for b, nrec := range batchRecs {
			d := rec.begin("metacell.decode", root, i)
			for r := 0; r < nrec; r++ {
				if err := metacell.DecodeRecordInto(layout, staging[off+r*recSize:off+(r+1)*recSize], &metas[r]); err != nil {
					return response{}, err
				}
			}
			rec.end(d)
			if b == len(batchMesh) {
				batchMesh = append(batchMesh, new(geom.IndexedMesh))
			}
			im := batchMesh[b]
			im.Reset()
			w := rec.begin("march.weld", root, i)
			for r := 0; r < nrec; r++ {
				cells += float64(welder.Metacell(layout, &metas[r], iso, im))
			}
			rec.end(w)
			off += nrec * recSize
			reqTris += im.Len()
			verts += float64(im.NumVerts())
		}

		x := rec.begin("geom.expand", root, i)
		mesh := &geom.Mesh{}
		mesh.Grow(reqTris)
		for b := range batchRecs {
			batchMesh[b].ExpandInto(mesh)
		}
		rec.end(x)
		rec.end(root)

		io := dev.Stats().Sub(io0)
		active = append(active, float64(qs.ActiveMetacells))
		batches = append(batches, float64(qs.Batches))
		reads = append(reads, float64(io.Reads))
		blocks = append(blocks, float64(io.BlocksRead))
		seeks = append(seeks, float64(io.Seeks))
		modeled = append(modeled, ms(e.eng.Disk.Time(io)))
		records += float64(qs.ActiveMetacells)
		tris += float64(reqTris)
		return response{iso: iso, meshes: []*repro.Mesh{mesh}, tris: reqTris}, nil
	})
	if err != nil {
		return t, err
	}
	if t.failed > 0 {
		return t, fmt.Errorf("staged replay: %d of %d meshes differ from Engine.Extract's", t.failed, t.attempted)
	}

	decode, weld := rec.perRequest("metacell.decode"), rec.perRequest("march.weld")
	v.put("core.query_ms", median(rec.perRequest("core.query")))
	v.put("core.active_metacells_per_req", mean(active))
	v.put("core.batches_per_req", mean(batches))
	v.put("blockio.read_ms", median(rec.perRequest("blockio.read")))
	v.put("blockio.reads_per_req", mean(reads))
	v.put("blockio.blocks_per_req", mean(blocks))
	v.put("blockio.seeks_per_req", mean(seeks))
	v.put("blockio.modeled_io_ms", median(modeled)) // the paper's disk, computed from the counts; never added to a measured time
	v.put("metacell.decode_ms", median(decode))
	v.put("metacell.decode_ns_per_rec", sum(decode)*1e6/records)
	v.put("march.weld_ms", median(weld))
	v.put("march.ns_per_active_cell", sum(weld)*1e6/cells)
	v.put("march.tris_per_req", tris/float64(t.attempted))
	v.put("geom.expand_ms", median(rec.perRequest("geom.expand")))
	v.put("geom.verts_per_tri", verts/tris)

	return t, nil
}

// stageTier replays a routed request one stage at a time against the key's
// home replica: the in-process query (hit or miss), the frame encode with its
// CRC, the replica's HTTP response read off the socket, the router's verify
// and the client's decode.
func (e *env) stageTier(ctx context.Context, rec *recorder, seed int64, u phase, v layerValues) (phase, error) {
	client := &http.Client{Transport: dist.NewTransport()}
	defer client.CloseIdleConnections()
	var (
		frameBuf                   []byte
		hitUS, extract, frameBytes []float64
		trisTotal                  float64
	)
	t, err := e.stagedLoop(seed, func(i, key int) (response, error) {
		iso := isovalues[key]
		rep := e.tier.Replicas[e.tier.Router.HomeReplica(0, iso)]
		root := rec.begin("request", -1, i)

		s := rec.begin("serve.query", root, i)
		resp, err := rep.Server().Query(ctx, 0, iso)
		rec.end(s)
		if err != nil {
			return response{}, err
		}
		if resp.Source == serve.SourceCache {
			hitUS = append(hitUS, float64(rec.spans[s].dur())/1e3)
		} else {
			// The extraction is the engine's time, not serve's.
			rec.spans = append(rec.spans, span{Name: "cluster.extract", Parent: s, Request: i,
				Start: rec.spans[s].End - int64(resp.Result.Wall), End: rec.spans[s].End})
			extract = append(extract, ms(resp.Result.Wall))
		}

		en := rec.begin("meshio.encode_crc", root, i)
		frameBuf = meshio.AppendBinaryChecksum(frameBuf[:0], resp.Iso, nodeMeshes(resp.Result)...)
		rec.end(en)

		h := rec.begin("dist.replica_http", root, i)
		frame, err := getFrame(ctx, client, rep.Addr(), iso)
		rec.end(h)
		if err != nil {
			return response{}, err
		}

		vf := rec.begin("meshio.verify", root, i)
		err = meshio.VerifyBinary(frame)
		rec.end(vf)
		if err != nil {
			return response{}, err
		}

		d := rec.begin("meshio.decode", root, i)
		mesh, qiso, err := meshio.DecodeBinary(frame)
		rec.end(d)
		rec.end(root)
		if err != nil {
			return response{}, err
		}

		frameBytes = append(frameBytes, float64(len(frame)))
		trisTotal += float64(mesh.Len())
		return response{iso: qiso, meshes: []*repro.Mesh{mesh}, tris: mesh.Len()}, nil
	})
	if err != nil {
		return t, err
	}

	// Every staged request has one span of each of these, in request order.
	httpMS, encodeMS := rec.perRequest("dist.replica_http"), rec.perRequest("meshio.encode_crc")
	verifyMS, decodeMS := rec.perRequest("meshio.verify"), rec.perRequest("meshio.decode")
	v.put("serve.hit_us", median(hitUS))
	v.put("serve.miss_ms", median(missSelf(rec)))
	v.put("cluster.extract_ms", median(extract))
	v.put("meshio.encode_crc_ms", median(encodeMS))
	v.put("meshio.verify_ms", median(verifyMS))
	v.put("meshio.decode_ms", median(decodeMS))
	v.put("meshio.frame_bytes_per_tri", sum(frameBytes)/trisTotal)
	v.put("dist.replica_http_ms", median(httpMS))
	// The replica's response is a cache hit (the staged query just before it
	// made sure), an encode, and the socket: what is left is the socket.
	// Likewise a routed request is that response plus verify and decode, and
	// what the untraced Router.Query took beyond them is the router's own.
	hit := median(hitUS) / 1e3
	uMed := u.keyMedians()
	wire := make([]float64, len(httpMS))
	overhead := make([]float64, len(httpMS))
	for i := range httpMS {
		wire[i] = httpMS[i] - encodeMS[i] - hit
		overhead[i] = uMed[t.samples[i].key] - httpMS[i] - verifyMS[i] - decodeMS[i]
	}
	v.put("dist.wire_ms", median(wire))
	v.put("dist.router_overhead_ms", median(overhead))
	// Computed, not measured: a frame's time on the modeled 25 MB/s link.
	v.put("dist.modeled_link_ms", median(frameBytes)/modeledLinkBytesPerSec*1e3)
	return t, nil
}

// missSelf returns, per missed request, serve's own time: the query span
// less the extraction inside it.
func missSelf(rec *recorder) []float64 {
	self := rec.selfTimes()
	var out []float64
	for _, s := range rec.spans {
		if s.Name == "cluster.extract" {
			out = append(out, float64(self[s.Parent])/1e6)
		}
	}
	return out
}

// getFrame reads one replica's /mesh response the way the router does.
func getFrame(ctx context.Context, client *http.Client, addr string, iso float32) ([]byte, error) {
	url := fmt.Sprintf("http://%s/mesh?step=0&iso=%s", addr, strconv.FormatFloat(float64(iso), 'g', -1, 32))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica %s answered %s", addr, resp.Status)
	}
	return meshio.ReadBinaryFrame(resp.Body, 0)
}
