package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/metacell"
	"repro/internal/volume"
)

// indexMagic identifies the on-disk index header ("CIT1").
const indexMagic = 0x43495431

// WriteTo serializes the tree index. The format is little-endian:
// header (magic, layout, root, node count), then per node the split value,
// child links, entry count and entries.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	put32 := func(v uint32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		m, err := bw.Write(b[:])
		n += int64(m)
		return err
	}
	put64 := func(v uint64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		m, err := bw.Write(b[:])
		n += int64(m)
		return err
	}
	putF := func(v float32) error { return put32(math.Float32bits(v)) }

	hdr := []uint32{
		indexMagic,
		uint32(t.Layout.Span), uint32(t.Layout.Fmt),
		uint32(t.Layout.Nx), uint32(t.Layout.Ny), uint32(t.Layout.Nz),
		uint32(t.Layout.Mx), uint32(t.Layout.My), uint32(t.Layout.Mz),
		uint32(t.Root), uint32(t.NumCells), uint32(len(t.Nodes)),
	}
	for _, v := range hdr {
		if err := put32(v); err != nil {
			return n, err
		}
	}
	for _, nd := range t.Nodes {
		if err := putF(nd.VM); err != nil {
			return n, err
		}
		if err := put32(uint32(nd.Left)); err != nil {
			return n, err
		}
		if err := put32(uint32(nd.Right)); err != nil {
			return n, err
		}
		if err := put32(uint32(len(nd.Entries))); err != nil {
			return n, err
		}
		for _, e := range nd.Entries {
			if err := putF(e.VMax); err != nil {
				return n, err
			}
			if err := putF(e.MinVMin); err != nil {
				return n, err
			}
			if err := put64(uint64(e.Offset)); err != nil {
				return n, err
			}
			if err := put32(uint32(e.Count)); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// maxSpan bounds the metacell edge a header may claim: past it span³ samples
// is not a record size any device holds.
const maxSpan = 1 << 10

// presize is how many nodes, or entries of one node, ReadTree makes room for
// on a header's say-so; past it the slices grow as records actually arrive.
const presize = 1 << 10

// ReadTree deserializes a tree index written by WriteTo. The bytes are not
// trusted: memory is allocated in proportion to the input actually read,
// whatever counts the header and the nodes claim; input that ends early is
// io.EOF or io.ErrUnexpectedEOF; and a header that makes no sense, or a root
// or child link that is out of range, points backwards or gives a node a
// second parent, is ErrCorruptIndex. WriteTo emits nodes parent first, so
// every link of a real index points forward; holding a file to that leaves no
// cycle and no shared subtree, which bounds Height's recursion and every walk
// by the node count.
func ReadTree(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	var scratch [8]byte
	get32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	get64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	var hdr [12]uint32
	for i := range hdr {
		v, err := get32()
		if err != nil {
			return nil, fmt.Errorf("core: reading index header: %w", err)
		}
		hdr[i] = v
	}
	if hdr[0] != indexMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorruptIndex, hdr[0])
	}
	f := volume.Format(hdr[2])
	if f != volume.U8 && f != volume.U16 && f != volume.F32 {
		return nil, fmt.Errorf("%w: bad scalar format %d", ErrCorruptIndex, hdr[2])
	}
	if hdr[1] < 2 || hdr[1] > maxSpan {
		return nil, fmt.Errorf("%w: bad metacell span %d", ErrCorruptIndex, hdr[1])
	}
	t := &Tree{
		Layout: metacell.Layout{
			Span: int(hdr[1]), Fmt: f,
			Nx: int(hdr[3]), Ny: int(hdr[4]), Nz: int(hdr[5]),
			Mx: int(hdr[6]), My: int(hdr[7]), Mz: int(hdr[8]),
		},
		Root:     int32(hdr[9]),
		NumCells: int(hdr[10]),
	}
	numNodes := int(hdr[11])
	if numNodes < 0 || numNodes > 1<<28 {
		return nil, fmt.Errorf("%w: implausible node count %d", ErrCorruptIndex, numNodes)
	}
	link := func(from int, to int32) error {
		if to < -1 || int(to) >= numNodes {
			return fmt.Errorf("%w: link to node %d of %d", ErrCorruptIndex, to, numNodes)
		}
		if to != -1 && int(to) <= from {
			return fmt.Errorf("%w: node %d links back to node %d", ErrCorruptIndex, from, to)
		}
		return nil
	}
	if err := link(-1, t.Root); err != nil {
		return nil, err
	}
	t.Nodes = make([]Node, 0, min(numNodes, presize))
	for i := 0; i < numNodes; i++ {
		vm, err := get32()
		if err != nil {
			return nil, fmt.Errorf("core: reading node %d: %w", i, err)
		}
		l, err := get32()
		if err != nil {
			return nil, err
		}
		rr, err := get32()
		if err != nil {
			return nil, err
		}
		ne, err := get32()
		if err != nil {
			return nil, err
		}
		if int(ne) > t.NumCells && t.NumCells > 0 {
			return nil, fmt.Errorf("%w: node %d claims %d entries for %d cells", ErrCorruptIndex, i, ne, t.NumCells)
		}
		nd := Node{VM: math.Float32frombits(vm), Left: int32(l), Right: int32(rr)}
		for _, to := range [2]int32{nd.Left, nd.Right} {
			if err := link(i, to); err != nil {
				return nil, err
			}
		}
		nd.Entries = make([]IndexEntry, 0, min(int(ne), presize))
		for j := 0; j < int(ne); j++ {
			vmax, err := get32()
			if err != nil {
				return nil, err
			}
			vmin, err := get32()
			if err != nil {
				return nil, err
			}
			off, err := get64()
			if err != nil {
				return nil, err
			}
			cnt, err := get32()
			if err != nil {
				return nil, err
			}
			nd.Entries = append(nd.Entries, IndexEntry{
				VMax:    math.Float32frombits(vmax),
				MinVMin: math.Float32frombits(vmin),
				Offset:  int64(off),
				Count:   int32(cnt),
			})
		}
		t.Nodes = append(t.Nodes, nd)
	}
	// Forward links cannot loop; one parent each means no subtree is shared.
	parented := make([]bool, numNodes)
	if t.Root != -1 {
		parented[t.Root] = true
	}
	for i := range t.Nodes {
		for _, to := range [2]int32{t.Nodes[i].Left, t.Nodes[i].Right} {
			if to == -1 {
				continue
			}
			if parented[to] {
				return nil, fmt.Errorf("%w: node %d has two parents", ErrCorruptIndex, to)
			}
			parented[to] = true
		}
	}
	return t, nil
}

// WriteFile writes the index to a file.
func (t *Tree) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTreeFile reads an index from a file.
func ReadTreeFile(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTree(f)
}
