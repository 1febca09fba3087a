package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/meshio"
	"repro/internal/serve"
)

// directFrame is the reference every response body is held to: a direct
// Engine.Extract's per-node chunks, sealed in node order.
func directFrame(t *testing.T, iso float32) []byte {
	t.Helper()
	direct := extractDirect(t, iso)
	chunks := make([][]byte, len(direct.PerNode))
	for i := range direct.PerNode {
		chunks[i] = direct.PerNode[i].Chunks
	}
	var buf bytes.Buffer
	meshio.Seal(iso, chunks...).WriteTo(&buf) //nolint:errcheck // bytes.Buffer
	return buf.Bytes()
}

// directSoup is the reference every routed mesh is held to: a direct
// Engine.Extract's per-node soups in node order, encoded by the copying
// version 1 codec — equal bytes are equal soups, bit for bit.
func directSoup(t *testing.T, iso float32) []byte {
	t.Helper()
	direct := extractDirect(t, iso)
	meshes, err := direct.Meshes()
	if err != nil {
		t.Fatal(err)
	}
	return meshio.AppendBinaryChecksum(nil, iso, meshes...)
}

func extractDirect(t *testing.T, iso float32) *cluster.Result {
	t.Helper()
	direct, err := engine(t).Extract(context.Background(), iso, cluster.Options{KeepMeshes: true, KeepChunks: true})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Triangles == 0 {
		t.Fatalf("iso %v: test surface is empty; pick another isovalue", iso)
	}
	return direct
}

// gatedBackend holds every extraction at a gate so a test can pile joiners
// onto one in flight.
type gatedBackend struct {
	inner   serve.Backend
	started chan struct{}
	release chan struct{}
}

func (b gatedBackend) ExtractStep(ctx context.Context, step int, iso float32, opts cluster.Options) (*cluster.Result, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.inner.ExtractStep(ctx, step, iso, opts)
}

// TestReplicaBodyByteIdenticalForEverySource: the replica encodes no
// response, it writes the surface's sealed frame — and what arrives is the
// sealed frame of a direct extraction's chunks, byte for byte, and decodes to
// the direct extraction's soup, whether the request led the extraction,
// joined it, or hit the cache afterwards.
func TestReplicaBodyByteIdenticalForEverySource(t *testing.T) {
	const iso = 128
	want, wantSoup := directFrame(t, iso), directSoup(t, iso)

	gate := gatedBackend{
		inner:   engine(t),
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	srv := serve.New(gate, serve.Config{})
	rep := NewReplicaServer(srv, ReplicaConfig{})
	if err := rep.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })

	type reply struct {
		source string
		length int64
		body   []byte
		err    error
	}
	get := func() reply {
		resp, err := http.Get(fmt.Sprintf("http://%s/mesh?step=0&iso=%d", rep.Addr(), iso))
		if err != nil {
			return reply{err: err}
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: %s", resp.Status, body)
		}
		return reply{source: resp.Header.Get("X-Iso-Source"), length: resp.ContentLength, body: body, err: err}
	}

	replies := make(chan reply, 2)
	go func() { replies <- get() }()
	<-gate.started // the leader's extraction is pinned in flight
	go func() { replies <- get() }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the in-flight extraction")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)

	seen := map[string]bool{}
	for _, r := range []reply{<-replies, <-replies, get()} {
		if r.err != nil {
			t.Fatal(r.err)
		}
		seen[r.source] = true
		if r.length != int64(len(want)) {
			t.Errorf("%s response declares Content-Length %d, frame is %d bytes", r.source, r.length, len(want))
		}
		if !bytes.Equal(r.body, want) {
			t.Errorf("%s response body (%d bytes) differs from the direct extraction's frame (%d bytes)",
				r.source, len(r.body), len(want))
		}
		if m, _, err := meshio.DecodeBinary(r.body); err != nil || !bytes.Equal(meshio.AppendBinaryChecksum(nil, iso, m), wantSoup) {
			t.Errorf("%s response body does not decode to the direct extraction's soup (err %v)", r.source, err)
		}
	}
	for _, src := range []string{"extracted", "coalesced", "cache"} {
		if !seen[src] {
			t.Errorf("no response was served as %q (saw %v)", src, seen)
		}
	}
	if st := srv.Stats(); st.Extractions != 1 {
		t.Errorf("%d extractions for one key", st.Extractions)
	}
	if got := srv.Metrics().Counter("replica_tx_bytes_total", "").Value(); got != int64(3*len(want)) {
		t.Errorf("replica_tx_bytes_total = %d, want 3 frames of %d", got, len(want))
	}
}

// TestRoutedMeshBelongsToTheCaller: Router.Query's mesh is a soup of the
// caller's own, decoded from a frame that went back to the router before
// Query returned — scribbling over the mesh, or growing it, changes nothing
// anyone else will ever see: not the next response for the key, not the
// replica's cached surface, and the next query reads into the recycled frame,
// never into a mesh a caller holds.
func TestRoutedMeshBelongsToTheCaller(t *testing.T) {
	ctx := context.Background()
	const iso = 128
	want, wantSoup := directFrame(t, iso), directSoup(t, iso)
	c := startCluster(t, 2, ReplicaConfig{}, RouterConfig{})
	scribble := geom.Triangle{A: geom.V(-1, -2, -3)}

	var kept []*Response
	for round := 0; round < 4; round++ {
		resp, err := c.Router.Query(ctx, 0, iso)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Iso != iso {
			t.Fatalf("round %d: iso %v", round, resp.Iso)
		}
		if got := meshio.AppendBinaryChecksum(nil, resp.Iso, resp.Mesh); !bytes.Equal(got, wantSoup) {
			t.Fatalf("round %d (%s): routed mesh differs from the direct extraction", round, resp.Route.Source)
		}
		if n, _ := c.Router.frames.size(); n != 1 {
			t.Fatalf("round %d: %d buffers on the free list; Query gives its one frame back at once", round, n)
		}
		for i := range resp.Mesh.Tris {
			resp.Mesh.Tris[i] = scribble
		}
		resp.Mesh.Append(geom.Triangle{})
		kept = append(kept, resp)
	}
	frame, route, err := c.Router.QueryBytes(ctx, 0, iso)
	if err != nil {
		t.Fatal(err)
	}
	if route.Source != "cache" || !bytes.Equal(frame, want) {
		t.Fatalf("after scribbling over four routed meshes the %s frame differs from the reference", route.Source)
	}
	for round, resp := range kept {
		for i, tri := range resp.Mesh.Tris[:len(resp.Mesh.Tris)-1] {
			if tri != scribble {
				t.Fatalf("kept response %d, triangle %d: a later query wrote into a mesh its caller holds", round, i)
			}
		}
	}
}

// TestRouterQueryChecksumsOncePerFrame pins who verifies when: the router
// checks the frame in fetch (that is what makes corruption retryable) and
// Query decodes without a second pass.
func TestRouterQueryChecksumsOncePerFrame(t *testing.T) {
	ctx := context.Background()
	const iso = 128
	want := directSoup(t, iso)
	client, in := chaosClient(23)
	c := startCluster(t, 2, ReplicaConfig{}, RouterConfig{Client: client})
	home := c.Router.HomeReplica(0, iso)
	in.SetFault(c.Replicas[home].Addr(), chaos.Fault{CorruptProb: 1})

	resp, err := c.Router.Query(ctx, 0, iso)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Route.Replica == home || !bytes.Equal(meshio.AppendBinaryChecksum(nil, resp.Iso, resp.Mesh), want) {
		t.Fatalf("verifying router: served by %d (corrupted home %d), mesh intact = %v", resp.Route.Replica, home,
			bytes.Equal(meshio.AppendBinaryChecksum(nil, resp.Iso, resp.Mesh), want))
	}
	if n := c.Router.Stats().CorruptFrames; n != 1 {
		t.Errorf("verifying router counted %d corrupt frames, want 1", n)
	}
}
