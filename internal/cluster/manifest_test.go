package cluster

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// openFiles counts the process's open file descriptors, or -1 where /proc
// does not say.
func openFiles() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestOpenHostileManifest hands Open directories an operator could name and
// no Save wrote: every one is a typed error rather than an allocation sized
// by the manifest's claim or a failure at query time, and none leaves a node
// file open.
func TestOpenHostileManifest(t *testing.T) {
	good := t.TempDir()
	e, err := Build(rmGrid(), Config{Procs: 3, Dir: good})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Save(good); err != nil {
		t.Fatal(err)
	}
	e.Close()
	data, err := os.ReadFile(filepath.Join(good, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	saved, err := parseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	// A copy of the good dataset, for the cases that damage files.
	clone := func() string {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(good)); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cases := []struct {
		name string
		dir  func() string
		edit func(*manifest)
		want error
	}{
		{name: "huge procs", want: os.ErrNotExist, // three good nodes, then a file that is not there
			edit: func(m *manifest) { m.Procs, m.BrickCRC32 = math.MaxInt32, nil }},
		{name: "zero procs", want: ErrBadManifest, edit: func(m *manifest) { m.Procs = 0 }},
		{name: "negative procs", want: ErrBadManifest, edit: func(m *manifest) { m.Procs = -3 }},
		{name: "short checksum list", want: ErrBadManifest,
			edit: func(m *manifest) { m.BrickCRC32 = m.BrickCRC32[:2] }},
		{name: "long checksum list", want: ErrBadManifest,
			edit: func(m *manifest) { m.BrickCRC32 = append(m.BrickCRC32, 7) }},
		{name: "negative data bytes", want: ErrBadManifest, edit: func(m *manifest) { m.DataBytes = -1 }},
		{name: "negative metacells", want: ErrBadManifest, edit: func(m *manifest) { m.TotalMetacells = -1 }},
		{name: "third node's bricks missing", want: os.ErrNotExist,
			dir: func() string {
				dir := clone()
				if err := os.Remove(nodePath(dir, 2)); err != nil {
					t.Fatal(err)
				}
				return dir
			}},
		{name: "third node indexed at another span", want: ErrLayoutMismatch,
			dir: func() string {
				dir, other := clone(), t.TempDir()
				o, err := Build(rmGrid(), Config{Procs: 3, Span: 5, Dir: other})
				if err != nil {
					t.Fatal(err)
				}
				defer o.Close()
				if err := o.Tree(2).WriteFile(indexPath(dir, 2)); err != nil {
					t.Fatal(err)
				}
				return dir
			}},
	}
	for _, c := range cases {
		dir := good
		if c.dir != nil {
			dir = c.dir()
		}
		if c.edit != nil {
			m := saved
			m.BrickCRC32 = slices.Clone(saved.BrickCRC32)
			c.edit(&m)
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			dir = clone()
			if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fds := openFiles()
		e, err := Open(dir)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, c.want) || e != nil {
			t.Errorf("%s: Open returned engine %v, error %v; want no engine and %v", c.name, e != nil, err, c.want)
		}
		if fds >= 0 && openFiles() != fds {
			t.Errorf("%s: %d files open before the failed Open, %d after", c.name, fds, openFiles())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: the failed Open allocated %d B", c.name, grew)
		}
	}
	// The undamaged directory still opens, with what Save recorded.
	re, err := Open(good)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Procs != 3 || len(re.trees) != 3 || len(re.devs) != 3 || re.Layout != e.Layout {
		t.Errorf("reopened %d procs, %d trees, %d devices, layout %+v", re.Procs, len(re.trees), len(re.devs), re.Layout)
	}
}

// FuzzParseManifest feeds parseManifest bytes a directory may hold: it
// answers with ErrBadManifest or with a manifest that satisfies the reader's
// own rules and survives being written and read again, and either way
// allocates in proportion to the input, not to a count the input claims.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte(`{"Procs":2,"TotalMetacells":10,"DroppedMetacells":3,"DataBytes":8192,"BrickCRC32":[1,2]}`))
	f.Add([]byte(`{"Procs":1099511627776}`))
	f.Add([]byte(`{"Procs":1,"BrickCRC32":[]}`))
	f.Add([]byte(`{"Procs":-1}`))
	f.Add([]byte(`{"Procs":1e99}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := parseManifest(data)
		runtime.ReadMemStats(&after)
		if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(data)); alloc > budget {
			t.Fatalf("parseManifest allocated %d B for %d B of input (budget %d)", alloc, len(data), budget)
		}
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if m.Procs < 1 || len(m.BrickCRC32) != 0 && len(m.BrickCRC32) != m.Procs {
			t.Fatalf("accepted %+v", m)
		}
		back, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := parseManifest(back); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("%+v re-read as %+v (err %v)", m, again, err)
		}
	})
}
