package cluster

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/volume"
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
	for i, t := range e.trees {
		if err := t.WriteFile(indexPath(dir, i)); err != nil {
			return fmt.Errorf("cluster: writing node %d index: %w", i, err)
		}
	}
	m := manifest{
		Procs:            e.Procs,
		TotalMetacells:   e.TotalMetacells,
		DroppedMetacells: e.DroppedMetacells,
		DataBytes:        e.DataBytes,
	}
	for i := range e.trees {
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

// Open reopens a preprocessed dataset saved under dir.
func Open(dir string) (*Engine, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: parsing manifest: %w", err)
	}
	if m.Procs <= 0 {
		return nil, fmt.Errorf("cluster: manifest has %d procs", m.Procs)
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
		trees:            make([]*core.Tree, m.Procs),
		devs:             make([]blockio.Device, m.Procs),
	}
	for i := 0; i < m.Procs; i++ {
		t, err := core.ReadTreeFile(indexPath(dir, i))
		if err != nil {
			return nil, fmt.Errorf("cluster: reading node %d index: %w", i, err)
		}
		e.trees[i] = t
		if i < len(m.BrickCRC32) {
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
		e.devs[i] = dev
	}
	e.Layout = e.trees[0].Layout
	return e, nil
}

// SaveTimeVarying persists every step of a time-varying engine: each step's
// bricks, indexes and manifest go into dir/step-N/. The engines must have
// been built with per-step directories via BuildTimeVaryingDirs, or the
// brick data re-laid here from memory-backed engines is rejected.
func (tv *TimeVaryingEngine) Save(dir string) error {
	for _, s := range tv.order {
		if err := tv.Steps[s].Save(stepDir(dir, s)); err != nil {
			return fmt.Errorf("cluster: saving step %d: %w", s, err)
		}
	}
	steps, err := json.MarshalIndent(tv.order, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "steps.json"), steps, 0o644)
}

func stepDir(dir string, step int) string {
	return filepath.Join(dir, fmt.Sprintf("step-%d", step))
}

// BuildTimeVaryingDirs preprocesses time steps into per-step subdirectories
// of dir (file-backed node disks), ready for Save/OpenTimeVarying.
func BuildTimeVaryingDirs(gen func(step int) *volume.Grid, steps []int, cfg Config, dir string) (*TimeVaryingEngine, error) {
	tv := &TimeVaryingEngine{Steps: map[int]*Engine{}}
	for _, s := range steps {
		c := cfg
		c.Dir = stepDir(dir, s)
		if err := os.MkdirAll(c.Dir, 0o755); err != nil {
			return nil, err
		}
		eng, err := Build(gen(s), c)
		if err != nil {
			return nil, fmt.Errorf("cluster: building step %d: %w", s, err)
		}
		tv.Steps[s] = eng
		tv.Index.Steps = append(tv.Index.Steps, eng.trees[0])
		tv.order = append(tv.order, s)
	}
	return tv, nil
}

// OpenTimeVarying reopens a time-varying dataset saved by Save.
func OpenTimeVarying(dir string) (*TimeVaryingEngine, error) {
	data, err := os.ReadFile(filepath.Join(dir, "steps.json"))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading steps manifest: %w", err)
	}
	var steps []int
	if err := json.Unmarshal(data, &steps); err != nil {
		return nil, fmt.Errorf("cluster: parsing steps manifest: %w", err)
	}
	tv := &TimeVaryingEngine{Steps: map[int]*Engine{}}
	for _, s := range steps {
		eng, err := Open(stepDir(dir, s))
		if err != nil {
			return nil, fmt.Errorf("cluster: opening step %d: %w", s, err)
		}
		tv.Steps[s] = eng
		tv.Index.Steps = append(tv.Index.Steps, eng.trees[0])
		tv.order = append(tv.order, s)
	}
	return tv, nil
}

// Close releases all per-step file handles.
func (tv *TimeVaryingEngine) Close() error {
	var first error
	for _, e := range tv.Steps {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
