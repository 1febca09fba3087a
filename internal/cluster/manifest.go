package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/blockio"
	"repro/internal/core"
)

// manifestName is the per-dataset metadata file written beside the node
// brick and index files.
const manifestName = "cluster.json"

// manifest records what Save wrote, enough for Open to reconstruct the
// engine without the original volume and to verify the brick files were not
// corrupted or truncated in transit.
type manifest struct {
	Procs            int
	TotalMetacells   int
	DroppedMetacells int
	DataBytes        int64
	// BrickCRC32 holds the IEEE CRC-32 of each node's brick file, in node
	// order. Empty (older datasets) skips verification.
	BrickCRC32 []uint32
}

// fileCRC returns the IEEE CRC-32 of a file's contents.
func fileCRC(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

func indexPath(dir string, node int) string {
	return filepath.Join(dir, fmt.Sprintf("node-%d.cit", node))
}

// Save writes the engine's per-node index files and manifest into dir. The
// brick data must already live there, i.e. the engine must have been built
// with Config.Dir = dir. Together with the brick files this makes the
// preprocessed dataset reopenable with Open — the preprocess-once /
// query-many workflow of the paper.
func (e *Engine) Save(dir string) error {
	m := manifest{
		Procs:            e.Procs,
		TotalMetacells:   e.TotalMetacells,
		DroppedMetacells: e.DroppedMetacells,
		DataBytes:        e.DataBytes,
	}
	for i, t := range e.trees {
		if err := t.WriteFile(indexPath(dir, i)); err != nil {
			return fmt.Errorf("cluster: writing node %d index: %w", i, err)
		}
		crc, err := fileCRC(nodePath(dir, i))
		if err != nil {
			return fmt.Errorf("cluster: checksumming node %d bricks: %w", i, err)
		}
		m.BrickCRC32 = append(m.BrickCRC32, crc)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestName), data, 0o644)
}

// Open wraps ErrBadManifest for a cluster.json that cannot describe a dataset
// and ErrLayoutMismatch for node indexes that do not describe the same one.
var (
	ErrBadManifest    = errors.New("cluster: bad manifest")
	ErrLayoutMismatch = errors.New("cluster: node indexes disagree on the layout")
)

// parseManifest reads a manifest an operator's directory handed over: at
// least one node, a checksum per node or none, no negative count.
func parseManifest(data []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if m.Procs < 1 || len(m.BrickCRC32) != 0 && len(m.BrickCRC32) != m.Procs ||
		m.TotalMetacells < 0 || m.DroppedMetacells < 0 || m.DataBytes < 0 {
		return m, fmt.Errorf("%w: %d procs, %d brick checksums, %d metacells kept, %d dropped, %d data bytes",
			ErrBadManifest, m.Procs, len(m.BrickCRC32), m.TotalMetacells, m.DroppedMetacells, m.DataBytes)
	}
	return m, nil
}

// Open reopens a preprocessed dataset saved under dir. The manifest's node
// count is a claim until the files bear it out: the engine grows a node at a
// time as its files are read, and a failure closes what was opened before it.
func Open(dir string) (_ *Engine, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading manifest: %w", err)
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Procs:            m.Procs,
		Disk:             blockio.DefaultDiskModel(),
		Threads:          1,
		batchRecords:     DefaultBatchRecords,
		pipelineDepth:    DefaultPipelineDepth,
		TotalMetacells:   m.TotalMetacells,
		DroppedMetacells: m.DroppedMetacells,
		DataBytes:        m.DataBytes,
	}
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	for i := 0; i < m.Procs; i++ {
		t, err := core.ReadTreeFile(indexPath(dir, i))
		if err != nil {
			return nil, fmt.Errorf("cluster: reading node %d index: %w", i, err)
		}
		if i == 0 {
			e.Layout = t.Layout
		} else if t.Layout != e.Layout {
			return nil, fmt.Errorf("%w: node %d has %+v, node 0 %+v", ErrLayoutMismatch, i, t.Layout, e.Layout)
		}
		e.trees = append(e.trees, t)
		if len(m.BrickCRC32) > 0 {
			crc, err := fileCRC(nodePath(dir, i))
			if err != nil {
				return nil, fmt.Errorf("cluster: checksumming node %d bricks: %w", i, err)
			}
			if crc != m.BrickCRC32[i] {
				return nil, fmt.Errorf("cluster: node %d brick file corrupt (crc %08x, manifest %08x)", i, crc, m.BrickCRC32[i])
			}
		}
		dev, err := blockio.OpenFile(nodePath(dir, i), blockio.DefaultBlockSize)
		if err != nil {
			return nil, fmt.Errorf("cluster: opening node %d bricks: %w", i, err)
		}
		e.devs, e.files = append(e.devs, dev), append(e.files, dev)
	}
	return e, nil
}
