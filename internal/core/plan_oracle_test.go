package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/blockio"
	"repro/internal/metacell"
	"repro/internal/rng"
	"repro/internal/volume"
)

// planOracle is Plan as it was first written, kept as the oracle: per node, a
// comparison sort of the subset's endpoints for their distinct median, three
// appended slices for the partition and a comparison sort of the node's own
// cells into bricks. It takes the sign of a zero split value and of a zero
// brick vmax from whichever cell sorts first; plusZeroPlan applies Plan's ±0
// rule to its result.
func planOracle(cells []metacell.Cell) *BuildPlan {
	p := &BuildPlan{}
	for i := range cells {
		if c := &cells[i]; !(c.VMin <= c.VMax) {
			p.err = fmt.Errorf("%w: metacell %d has [%v, %v]", ErrBadInterval, c.ID, c.VMin, c.VMax)
			return p
		}
	}
	idx := make([]int, len(cells))
	for i := range idx {
		idx[i] = i
	}
	p.root = p.build(cells, idx)
	return p
}

// build recursively constructs the subtree for the given cell subset and
// returns its node index (-1 for an empty subset).
func (p *BuildPlan) build(cells []metacell.Cell, subset []int) int32 {
	if len(subset) == 0 {
		return -1
	}
	vm := medianEndpoint(cells, subset)

	var here, left, right []int
	for _, i := range subset {
		c := &cells[i]
		switch {
		case c.VMax < vm:
			left = append(left, i)
		case c.VMin > vm:
			right = append(right, i)
		default: // vmin ≤ vm ≤ vmax
			here = append(here, i)
		}
	}
	if len(here) == 0 {
		panic("core: median split produced an empty node")
	}
	sort.Slice(here, func(a, b int) bool {
		ca, cb := &cells[here[a]], &cells[here[b]]
		if ca.VMax != cb.VMax {
			return ca.VMax > cb.VMax
		}
		if ca.VMin != cb.VMin {
			return ca.VMin < cb.VMin
		}
		return ca.ID < cb.ID
	})
	n := nodePlan{vm: vm}
	for start := 0; start < len(here); {
		end := start
		vmax := cells[here[start]].VMax
		for end < len(here) && cells[here[end]].VMax == vmax {
			end++
		}
		n.bricks = append(n.bricks, brickPlan{vmax: vmax, cells: here[start:end]})
		start = end
	}

	self := int32(len(p.nodes))
	p.nodes = append(p.nodes, n)
	l := p.build(cells, left)
	r := p.build(cells, right)
	p.nodes[self].left = l
	p.nodes[self].right = r
	return self
}

// medianEndpoint returns the median of the distinct endpoint values of the
// subset's intervals.
func medianEndpoint(cells []metacell.Cell, subset []int) float32 {
	vals := make([]float32, 0, 2*len(subset))
	for _, i := range subset {
		vals = append(vals, cells[i].VMin, cells[i].VMax)
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	w := 0
	for i, v := range vals {
		if i == 0 || v != vals[w-1] {
			vals[w] = v
			w++
		}
	}
	return vals[w/2]
}

// plusZeroPlan writes the oracle plan's zero split values and brick vmax as
// +0, Plan's rule, and returns the plan.
func plusZeroPlan(p *BuildPlan) *BuildPlan {
	for ni := range p.nodes {
		n := &p.nodes[ni]
		n.vm = plusZero(n.vm)
		for bi := range n.bricks {
			n.bricks[bi].vmax = plusZero(n.bricks[bi].vmax)
		}
	}
	return p
}

// samePlan reports the first difference between two plans, bit for bit, or
// nil.
func samePlan(want, got *BuildPlan) error {
	if (want.err == nil) != (got.err == nil) {
		return fmt.Errorf("error %v, oracle %v", got.err, want.err)
	}
	if got.root != want.root || len(got.nodes) != len(want.nodes) {
		return fmt.Errorf("root %d of %d nodes, oracle root %d of %d", got.root, len(got.nodes), want.root, len(want.nodes))
	}
	for ni := range want.nodes {
		w, g := &want.nodes[ni], &got.nodes[ni]
		if math.Float32bits(g.vm) != math.Float32bits(w.vm) || g.left != w.left || g.right != w.right || len(g.bricks) != len(w.bricks) {
			return fmt.Errorf("node %d: vm %v, links %d %d, %d bricks; oracle vm %v, links %d %d, %d bricks",
				ni, g.vm, g.left, g.right, len(g.bricks), w.vm, w.left, w.right, len(w.bricks))
		}
		for bi := range w.bricks {
			wb, gb := &w.bricks[bi], &g.bricks[bi]
			if math.Float32bits(gb.vmax) != math.Float32bits(wb.vmax) || !slices.Equal(gb.cells, wb.cells) {
				return fmt.Errorf("node %d brick %d: vmax %v cells %v; oracle vmax %v cells %v", ni, bi, gb.vmax, gb.cells, wb.vmax, wb.cells)
			}
		}
	}
	return nil
}

// materializedBytes materializes p onto `writers` memory disks and returns
// each disk's bytes followed by each tree's serialized index, which must hold
// no −0.
func materializedBytes(t testing.TB, p *BuildPlan, l metacell.Layout, cells []metacell.Cell, writers int) [][]byte {
	t.Helper()
	ws := make([]*blockio.Writer, writers)
	for i := range ws {
		ws[i] = blockio.NewWriter()
	}
	trees, err := p.MaterializeStriped(l, cells, asSinks(ws))
	if err != nil {
		t.Fatal(err)
	}
	const negZero = 1 << 31
	var out [][]byte
	for i, tr := range trees {
		for ni, n := range tr.Nodes {
			if math.Float32bits(n.VM) == negZero {
				t.Fatalf("disk %d node %d: split value −0", i, ni)
			}
			for _, e := range n.Entries {
				if math.Float32bits(e.VMax) == negZero || math.Float32bits(e.MinVMin) == negZero {
					t.Fatalf("disk %d node %d: entry %+v holds −0", i, ni, e)
				}
			}
		}
		var idx bytes.Buffer
		if _, err := tr.WriteTo(&idx); err != nil {
			t.Fatal(err)
		}
		out = append(out, diskBytes(t, ws[i]), idx.Bytes())
	}
	return out
}

// checkAgainstOracle holds Plan to the oracle on cells: node for node under
// the ±0 rule, and in every byte of the disks and indexes materializing the
// two plans writes onto one to four disks.
func checkAgainstOracle(t testing.TB, l metacell.Layout, cells []metacell.Cell) {
	t.Helper()
	want, got := plusZeroPlan(planOracle(cells)), Plan(cells)
	if err := samePlan(want, got); err != nil {
		t.Fatalf("%d cells: %v", len(cells), err)
	}
	if got.err != nil {
		return
	}
	for writers := 1; writers <= 4; writers++ {
		a, b := materializedBytes(t, want, l, cells, writers), materializedBytes(t, got, l, cells, writers)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%d cells, %d disks: disk %d's %s differs from the oracle plan's", len(cells), writers, i/2, []string{"records", "index"}[i%2])
			}
		}
	}
}

// shuffled returns a copy of cells in an order drawn from seed.
func shuffled(cells []metacell.Cell, seed uint64) []metacell.Cell {
	out := append([]metacell.Cell(nil), cells...)
	r := rng.New(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestPlanMatchesOracle: on 49 synthetic seeds — u8 intervals in ID order,
// float intervals shuffled — and on the metacells of an RM volume, Plan is
// the oracle's plan node for node, and the node disks and serialized trees
// materializing it writes are the oracle plan's, byte for byte.
func TestPlanMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		l := testLayout()
		checkAgainstOracle(t, l, synthCells(l, 50+int(seed)*40, 100+seed))
	}
	for seed := uint64(0); seed < 24; seed++ {
		l := float32Layout()
		checkAgainstOracle(t, l, shuffled(makeFloatCells(l, 30+int(seed)*25, 200+seed), seed))
	}
	g := volume.RichtmyerMeshkov(65, 65, 60, 250, 1)
	l, cells := metacell.Extract(g, metacell.DefaultSpan)
	checkAgainstOracle(t, l, cells)
}

// fuzzLayout is an f32 layout with span 2: records of 40 bytes.
func fuzzLayout() metacell.Layout {
	return metacell.NewLayout(volume.New(3, 3, 3, volume.F32), 2)
}

// endpointPalette is 256 endpoint values with many ties: both zeros, both
// infinities, the extremes and the smallest subnormals, and a run of quarter
// steps through zero.
var endpointPalette = func() (p [256]float32) {
	tiny := math.SmallestNonzeroFloat32
	copy(p[:], []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32, float32(tiny), float32(-tiny), 1, -1})
	for i := 10; i < len(p); i++ {
		p[i] = float32(i-133) / 4
	}
	return p
}()

// fuzzCells decodes cells from fuzz input. An even first byte takes two bytes
// per cell, each naming a palette endpoint; an odd one takes eight, two raw
// float32s (NaN read as −0). Endpoints are swapped into order, IDs are a
// permutation drawn from seed, and the cells come in input order.
func fuzzCells(seed uint64, data []byte) []metacell.Cell {
	if len(data) == 0 {
		return nil
	}
	raw := data[0]&1 == 1
	data = data[1:]
	per := 2
	if raw {
		per = 8
	}
	n := min(len(data)/per, 4000)
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	r := rng.New(seed)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		ids[i], ids[j] = ids[j], ids[i]
	}
	l := fuzzLayout()
	cells := make([]metacell.Cell, n)
	for i := range cells {
		d := data[i*per:]
		var a, b float32
		if raw {
			a = math.Float32frombits(binary.LittleEndian.Uint32(d))
			b = math.Float32frombits(binary.LittleEndian.Uint32(d[4:]))
			if a != a {
				a = float32(math.Copysign(0, -1))
			}
			if b != b {
				b = float32(math.Copysign(0, -1))
			}
		} else {
			a, b = endpointPalette[d[0]], endpointPalette[d[1]]
		}
		if a > b {
			a, b = b, a
		}
		rec := make([]byte, l.RecordSize())
		binary.LittleEndian.PutUint32(rec, ids[i])
		binary.LittleEndian.PutUint32(rec[4:], math.Float32bits(a))
		cells[i] = metacell.Cell{ID: ids[i], VMin: a, VMax: b, Record: rec}
	}
	return cells
}

// FuzzPlan holds Plan to the oracle on any set of intervals: palette
// endpoints (ties, ±0, ±Inf, subnormals) or raw float bits, in any order.
func FuzzPlan(f *testing.F) {
	f.Add(uint64(0), []byte{0, 0, 1, 1, 0, 2, 3, 3, 0, 1, 2, 140, 150, 120, 133, 0, 133})
	f.Add(uint64(1), []byte{0, 3, 2, 1, 0, 0, 1, 4, 5, 6, 7, 7, 6, 8, 9, 9, 8})
	r := rng.New(3)
	for _, size := range []int{60, 400, 2000} {
		for mode := byte(0); mode < 2; mode++ {
			data := []byte{mode}
			for range size {
				data = append(data, byte(r.Intn(256)))
			}
			f.Add(uint64(size), data)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		checkAgainstOracle(t, fuzzLayout(), fuzzCells(seed, data))
	})
}
