package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unsafeSurface names every Go file outside bench/ that imports "unsafe" or
// carries a //go:linkname directive, with whether it carries one and what it
// needs them for. Memory the type system does not vouch for stays in these
// files.
var unsafeSurface = map[string]struct {
	linkname bool
	why      string
}{
	"internal/geom/alloc.go":        {true, "MakeSoup: runtime.mallocgc without the clear, and a slice of triangles over what it returns"},
	"internal/geom/gather.go":       {false, "Gather hands the kernel raw pointers to the soup, the vertices and indices of either width"},
	"internal/geom/gather_amd64.go": {false, "the kernel's declaration takes its indices as an unsafe.Pointer"},
	"internal/geom/gather_other.go": {false, "the same declaration in builds without the kernel"},
	"internal/meshio/view.go":       {false, "wire bytes read and written in place where the host's triangle layout is the wire's"},
}

// TestUnsafeSurface fails on a file outside bench/ that imports "unsafe" or
// carries a //go:linkname directive and is not in unsafeSurface, and on a
// listed file that no longer does what its entry says, test files and
// every build's files included.
func TestUnsafeSurface(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if name := d.Name(); rel != "." && (name[0] == '.' || name[0] == '_' || name == "testdata" || rel == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		usesUnsafe, linkname := false, false
		for _, imp := range f.Imports {
			usesUnsafe = usesUnsafe || imp.Path.Value == `"unsafe"`
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				linkname = linkname || strings.HasPrefix(c.Text, "//go:linkname")
			}
		}
		entry, listed := unsafeSurface[rel]
		switch {
		case !listed && (usesUnsafe || linkname):
			t.Errorf("%s imports unsafe or carries a linkname and is not in unsafeSurface", rel)
		case listed && !usesUnsafe && !linkname:
			t.Errorf("%s neither imports unsafe nor carries a linkname any more: drop it from unsafeSurface", rel)
		case listed && linkname != entry.linkname:
			t.Errorf("%s: linkname %v, unsafeSurface says %v", rel, linkname, entry.linkname)
		}
		seen[rel] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rel, entry := range unsafeSurface {
		if !seen[rel] {
			t.Errorf("unsafeSurface lists %s, which does not exist", rel)
		}
		if entry.why == "" {
			t.Errorf("unsafeSurface[%q] gives no reason", rel)
		}
	}
}
