package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blockio"
	"repro/internal/march"
	"repro/internal/meshio"
	"repro/internal/metacell"
	"repro/internal/obs"
	"repro/internal/volume"
)

func rmGrid() *volume.Grid { return volume.RichtmyerMeshkov(33, 33, 30, 230, 7) }

func TestBuildDefaults(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Layout.Span != 9 {
		t.Errorf("default span = %d", e.Layout.Span)
	}
	if e.TotalMetacells == 0 || e.DataBytes == 0 {
		t.Error("no data distributed")
	}
	if e.TotalMetacells+e.DroppedMetacells != e.Layout.Count() {
		t.Error("kept + dropped != total metacells")
	}
}

func TestBuildRejectsZeroProcs(t *testing.T) {
	if _, err := Build(rmGrid(), Config{}); err == nil {
		t.Error("Procs 0 should fail")
	}
}

func TestBuildRejectsSpanOutsideRange(t *testing.T) {
	for _, span := range []int{-1, 1, metacell.MaxSpan + 1} {
		if _, err := Build(rmGrid(), Config{Procs: 1, Span: span}); err == nil {
			t.Errorf("span %d should fail", span)
		}
	}
}

func TestExtractMatchesReferenceAcrossProcs(t *testing.T) {
	g := rmGrid()
	for _, iso := range []float32{60, 128, 190} {
		ref, _ := march.Grid(g, iso)
		for _, procs := range []int{1, 2, 4, 8} {
			e, err := Build(g, Config{Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Extract(context.Background(), iso, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Triangles != ref.Len() {
				t.Errorf("p=%d iso=%v: %d triangles, reference %d", procs, iso, res.Triangles, ref.Len())
			}
		}
	}
}

func TestExtractTotalsConsistent(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Extract(context.Background(), 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var active, tris int
	for _, n := range res.PerNode {
		active += n.ActiveMetacells
		tris += n.Triangles
	}
	if active != res.Active || tris != res.Triangles {
		t.Error("totals do not match per-node sums")
	}
	if res.Wall <= 0 || res.MaxNodeTime() <= 0 {
		t.Error("timings not recorded")
	}
}

func TestLoadBalanceAcrossIsovalues(t *testing.T) {
	// The paper's Tables 6–7 property: active metacells and triangles are
	// spread almost evenly across nodes for every isovalue.
	e, err := Build(volume.RichtmyerMeshkov(65, 65, 60, 230, 3), Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for iso := float32(10); iso <= 210; iso += 40 {
		res, err := e.Extract(context.Background(), iso, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Active < 100 {
			continue // too small to judge balance
		}
		lo, hi := res.PerNode[0].ActiveMetacells, res.PerNode[0].ActiveMetacells
		for _, n := range res.PerNode {
			if n.ActiveMetacells < lo {
				lo = n.ActiveMetacells
			}
			if n.ActiveMetacells > hi {
				hi = n.ActiveMetacells
			}
		}
		avg := float64(res.Active) / float64(len(res.PerNode))
		if float64(hi) > 1.15*avg || float64(lo) < 0.85*avg {
			t.Errorf("iso %v: metacell imbalance lo=%d hi=%d avg=%.0f", iso, lo, hi, avg)
		}
	}
}

func TestKeepMeshes(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Extract(context.Background(), 128, Options{KeepMeshes: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.PerNode {
		if n.Mesh == nil {
			t.Fatal("mesh not kept")
		}
		if n.Mesh.Len() != n.Triangles {
			t.Errorf("node %d mesh len %d != triangles %d", n.Node, n.Mesh.Len(), n.Triangles)
		}
	}
	res2, err := e.Extract(context.Background(), 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res2.PerNode {
		if n.Mesh != nil {
			t.Error("mesh kept without KeepMeshes")
		}
	}
}

// TestKeepChunks: KeepChunks keeps each node's surface as version 2 chunks
// and no soup; the chunks expand to exactly the soup KeepMeshes keeps, bit
// for bit, and with both set an extraction keeps both forms of one surface.
func TestKeepChunks(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	soup, err := e.Extract(context.Background(), 128, Options{KeepMeshes: true})
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := e.Extract(context.Background(), 128, Options{KeepChunks: true})
	if err != nil {
		t.Fatal(err)
	}
	both, err := e.Extract(context.Background(), 128, Options{KeepMeshes: true, KeepChunks: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range chunked.PerNode {
		if n.Mesh != nil || soup.PerNode[i].Chunks != nil {
			t.Fatalf("node %d: a form was kept that was not asked for", i)
		}
		if n.Triangles > 0 && len(n.Chunks) == 0 {
			t.Fatalf("node %d: %d triangles and no chunks", i, n.Triangles)
		}
		for name, chunks := range map[string][]byte{"KeepChunks": n.Chunks, "both": both.PerNode[i].Chunks} {
			m, err := meshio.DecodeChunks(chunks)
			if err != nil {
				t.Fatalf("node %d %s: %v", i, name, err)
			}
			if want := soup.PerNode[i].Mesh; !sameSurface(m, want) || m.Len() != n.Triangles {
				t.Errorf("node %d %s: chunks decode to %d triangles, not the kept mesh's %d", i, name, m.Len(), want.Len())
			}
		}
		if !sameSurface(both.PerNode[i].Mesh, soup.PerNode[i].Mesh) {
			t.Errorf("node %d: the mesh kept beside chunks differs from the mesh kept alone", i)
		}
	}
}

// chunkForms counts the grid and plain chunks of one node's chunk buffer,
// walking the chunk headers as meshio's layout comment sets them out.
func chunkForms(t *testing.T, b []byte) (grid, plain int) {
	t.Helper()
	le := binary.LittleEndian
	for len(b) > 0 {
		verts, tris, layout := le.Uint32(b), le.Uint32(b[4:]), le.Uint32(b[8:])
		vertSize := uint32(12)
		if layout&(1<<8) != 0 {
			vertSize = 8
			grid++
		} else {
			plain++
		}
		size := 12 + vertSize*verts + (3*tris*(layout&0xff)+3)&^3
		if uint32(len(b)) < size {
			t.Fatalf("chunk of %d bytes in %d", size, len(b))
		}
		b = b[size:]
	}
	return grid, plain
}

// TestKeptChunkForms guards the grid property where it is made: every vertex
// the weld kernel makes lies on a grid edge, so a byte volume's chunks are
// all grid form (8 bytes a vertex), while an f32 volume with ±Inf samples
// makes NaN crossings, whose chunks are plain — and decode, like the grid
// ones, to the kept soup bit for bit.
func TestKeptChunkForms(t *testing.T) {
	rm := rmGrid()
	inf := volume.New(rm.Nx, rm.Ny, rm.Nz, volume.F32)
	inf.Fill(rm.At)
	for i := 0; i < rm.Nx*rm.Ny*rm.Nz; i += 1009 {
		x, y, z := i%rm.Nx, i/rm.Nx%rm.Ny, i/(rm.Nx*rm.Ny)
		inf.Set(x, y, z, float32(math.Inf(1-2*(i/1009%2))))
	}
	for _, tc := range []struct {
		name  string
		g     *volume.Grid
		plain bool
	}{{"u8", rm, false}, {"f32 with ±Inf samples", inf, true}} {
		e, err := Build(tc.g, Config{Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Extract(context.Background(), 128, Options{KeepMeshes: true, KeepChunks: true})
		if err != nil {
			t.Fatal(err)
		}
		grid, plain := 0, 0
		for i, n := range res.PerNode {
			g, p := chunkForms(t, n.Chunks)
			grid, plain = grid+g, plain+p
			m, err := meshio.DecodeChunks(n.Chunks)
			if err != nil {
				t.Fatalf("%s node %d: %v", tc.name, i, err)
			}
			if !sameSurface(m, n.Mesh) || !bytes.Equal(meshio.AppendBinary(nil, 0, m), meshio.AppendBinary(nil, 0, n.Mesh)) {
				t.Errorf("%s node %d: chunks decode to a mesh unlike the kept one", tc.name, i)
			}
		}
		if (plain > 0) != tc.plain || !tc.plain && grid == 0 {
			t.Errorf("%s: %d grid and %d plain chunks, want plain ones %v", tc.name, grid, plain, tc.plain)
		}
	}
}

func TestFileBackedNodes(t *testing.T) {
	dir := t.TempDir()
	g := rmGrid()
	e, err := Build(g, Config{Procs: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Extract(context.Background(), 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := march.Grid(g, 128)
	if res.Triangles != ref.Len() {
		t.Errorf("file-backed: %d triangles, reference %d", res.Triangles, ref.Len())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestIOAccountingPerNode(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Extract(context.Background(), 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.PerNode {
		if n.ActiveMetacells > 0 {
			if n.IOStats.BlocksRead == 0 {
				t.Errorf("node %d: active metacells but no blocks read", n.Node)
			}
			if n.IOModelTime <= 0 {
				t.Errorf("node %d: no modeled I/O time", n.Node)
			}
			wantBytes := int64(n.ActiveMetacells) * int64(e.Layout.RecordSize())
			if n.IOStats.BytesRead < wantBytes {
				t.Errorf("node %d: read %d bytes < active payload %d", n.Node, n.IOStats.BytesRead, wantBytes)
			}
		}
	}
}

// TestTimeVarying checks every step against the whole-grid reference, in
// memory and with each step's disks under Dir, and that the index size is
// every step's trees on every node.
func TestTimeVarying(t *testing.T) {
	gen := volume.TimeVaryingRM(17, 17, 16, 5)
	steps := []int{100, 150, 200}
	for _, dir := range []string{"", t.TempDir()} {
		tv, err := BuildTimeVarying(gen, steps, Config{Procs: 2, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer tv.Close()
		if len(tv.Steps) != 3 || tv.Steps[100] == nil {
			t.Errorf("Steps = %v", tv.Steps)
		}
		var size int64
		for _, s := range steps {
			res, err := tv.ExtractStep(context.Background(), s, 70, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := march.Grid(gen(s), 70)
			if res.Triangles != ref.Len() {
				t.Errorf("dir %q, step %d: %d triangles, reference %d", dir, s, res.Triangles, ref.Len())
			}
			for i := range tv.Steps[s].Procs {
				size += tv.Steps[s].Tree(i).IndexSizeBytes()
			}
		}
		if got := tv.IndexSizeBytes(); got != size {
			t.Errorf("dir %q: index size %d, every step's node trees sum to %d", dir, got, size)
		}
		if _, err := tv.ExtractStep(context.Background(), 999, 70, Options{}); err == nil {
			t.Error("unindexed step should fail")
		}
	}
}

// TestCloseClosesWrappedFiles closes an engine whose file stores are hidden
// behind the wrappers Config and EnableMetrics put around them, built and
// reopened: every store must be closed after Close.
func TestCloseClosesWrappedFiles(t *testing.T) {
	dir := t.TempDir()
	var stores []*blockio.Store
	e, err := Build(rmGrid(), Config{Procs: 2, Dir: dir, Metrics: obs.NewRegistry(),
		WrapDevice: func(_ int, dev blockio.Device) blockio.Device {
			stores = append(stores, dev.(*blockio.Store))
			return dev
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range re.Procs {
		stores = append(stores, re.Device(i).(*blockio.Store))
	}
	re.EnableMetrics(obs.NewRegistry())
	for _, c := range []*Engine{e, re} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 1)
	for i, st := range stores {
		if err := st.ReadAt(buf, 0); !errors.Is(err, os.ErrClosed) {
			t.Errorf("store %d after Close: ReadAt = %v, want %v", i, err, os.ErrClosed)
		}
	}
}

// TestFailedBuildClosesItsFiles: a Build that fails part-way closes every
// node-disk file it opened before the failure. node-1.bricks is a directory,
// so node 0's writer is open when node 1's cannot be created.
func TestFailedBuildClosesItsFiles(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	// The runtime opens its poller on the first file; do that outside the count.
	if f, err := os.Create(filepath.Join(dir, "warm")); err == nil {
		f.Close()
	}
	if err := os.Mkdir(nodePath(dir, 1), 0o755); err != nil {
		t.Fatal(err)
	}
	before := fds()
	if e, err := Build(rmGrid(), Config{Procs: 2, Dir: dir}); err == nil {
		e.Close()
		t.Fatal("Build over a directory named node-1.bricks succeeded")
	}
	if after := fds(); after != before {
		t.Errorf("%d open files before the failed Build, %d after", before, after)
	}
}

func TestEngineAccessors(t *testing.T) {
	e, err := Build(rmGrid(), Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if e.Tree(i) == nil || e.Device(i) == nil {
			t.Fatalf("node %d accessors nil", i)
		}
	}
	if e.Tree(0).NumCells+e.Tree(1).NumCells != e.TotalMetacells {
		t.Error("per-node cells do not sum to total")
	}
}

func TestPreprocessingDropsConstantMetacellsRM(t *testing.T) {
	// Paper §7: preprocessing shrinks the RM data by ≈50%.
	g := volume.RichtmyerMeshkov(65, 65, 60, 250, 1)
	e, err := Build(g, Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(e.DroppedMetacells) / float64(e.Layout.Count())
	if frac < 0.15 || frac > 0.8 {
		t.Errorf("dropped fraction = %.2f, want substantial (paper ≈0.5)", frac)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := rmGrid()
	e, err := Build(g, Config{Procs: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	want, err := e.Extract(context.Background(), 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Procs != 3 || re.TotalMetacells != e.TotalMetacells || re.Layout != e.Layout {
		t.Fatal("reopened engine metadata mismatch")
	}
	got, err := re.Extract(context.Background(), 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Triangles != want.Triangles || got.Active != want.Active {
		t.Errorf("reopened extraction: %d tris / %d active, want %d / %d",
			got.Triangles, got.Active, want.Triangles, want.Active)
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("missing manifest should fail")
	}
}

func TestExtractSurvivesUntilFault(t *testing.T) {
	// A node whose disk fails must surface the error from Extract rather
	// than panic or silently return a partial surface.
	e, err := Build(rmGrid(), Config{
		Procs: 2,
		WrapDevice: func(node int, dev blockio.Device) blockio.Device {
			if node == 1 {
				return &blockio.FaultDevice{Inner: dev, FailEvery: 1}
			}
			return dev
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Extract(context.Background(), 128, Options{}); err == nil {
		t.Error("extraction with a failing disk should return an error")
	}
}

func TestWrapDeviceObservesReads(t *testing.T) {
	reads := make([]int, 2)
	e, err := Build(rmGrid(), Config{
		Procs: 2,
		WrapDevice: func(node int, dev blockio.Device) blockio.Device {
			return &countingDevice{Device: dev, n: &reads[node]}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Extract(context.Background(), 128, Options{}); err != nil {
		t.Fatal(err)
	}
	if reads[0] == 0 || reads[1] == 0 {
		t.Errorf("wrapped devices saw no reads: %v", reads)
	}
}

type countingDevice struct {
	blockio.Device
	n *int
}

func (d *countingDevice) ReadAt(p []byte, off int64) error {
	*d.n++
	return d.Device.ReadAt(p, off)
}

func TestBuildFromVolumeFile(t *testing.T) {
	g := rmGrid()
	path := filepath.Join(t.TempDir(), "vol.bin")
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	streamed, err := BuildFromVolumeFile(path, Config{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Build(g, Config{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.TotalMetacells != direct.TotalMetacells || streamed.DataBytes != direct.DataBytes {
		t.Fatal("streamed preprocessing differs from in-memory")
	}
	a, err := streamed.Extract(context.Background(), 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := direct.Extract(context.Background(), 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Triangles != b.Triangles || a.Active != b.Active {
		t.Errorf("streamed: %d tris/%d active, direct: %d/%d", a.Triangles, a.Active, b.Triangles, b.Active)
	}
	if _, err := BuildFromVolumeFile(filepath.Join(t.TempDir(), "nope"), Config{Procs: 1}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestThreadsPerNodeSameResult(t *testing.T) {
	g := rmGrid()
	ref, _ := march.Grid(g, 128)
	for _, threads := range []int{1, 2, 4} {
		e, err := Build(g, Config{Procs: 2, ThreadsPerNode: threads})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Extract(context.Background(), 128, Options{KeepMeshes: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles != ref.Len() {
			t.Errorf("threads=%d: %d triangles, want %d", threads, res.Triangles, ref.Len())
		}
		var cells int
		for _, n := range res.PerNode {
			cells += n.ActiveCells
			if n.Mesh.Len() != n.Triangles {
				t.Errorf("threads=%d node %d: mesh/count mismatch", threads, n.Node)
			}
		}
	}
}

func TestThreadsMoreThanRecords(t *testing.T) {
	// More threads than active metacells must degrade gracefully.
	e, err := Build(volume.Sphere(17), Config{Procs: 1, ThreadsPerNode: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Extract(context.Background(), 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := march.Grid(volume.Sphere(17), 128)
	if res.Triangles != ref.Len() {
		t.Errorf("%d triangles, want %d", res.Triangles, ref.Len())
	}
}

func TestOpenDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	e, err := Build(rmGrid(), Config{Procs: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in node 1's brick file.
	path := nodePath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("corrupted brick file should fail to open")
	}
}
