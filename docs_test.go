package repro

import (
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// liveDocs are the documents that tell a reader where the code is: the design
// notes and the build-and-drive notes. TestDocsNameLiveCode holds every code
// reference in them to the tree.
var liveDocs = []string{"DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}

var (
	// fencedBlock is a ``` block: shell commands, whose spans are not names.
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	// qualifiedName is pkg.Name, pkg.Type.Member or pkg.(*Type).Method at
	// the start of a code span; a call's arguments may follow it.
	qualifiedName = regexp.MustCompile(`^([a-z][a-z0-9]*)\.(?:\(\*(\w+)\)\.(\w+)|(\w+)(?:\.(\w+))?)`)
	// goFileCite is file.go, dir/file.go, file.go:N or file.go:N-M.
	goFileCite = regexp.MustCompile(`[\w./-]*\w\.go\b(?::(\d+)(?:-(\d+))?)?`)
)

// TestDocsNameLiveCode fails on a code span in the live documents that names
// a declaration its package's non-test files no longer have, and on a cited
// Go file that is gone or shorter than the line cited. A code span is checked
// when it starts with pkg.Name, pkg.Type.Member or pkg.(*Type).Method and pkg
// is a package under internal/ or repro itself; a name with an underscore in
// it is a metric's, and is not checked.
func TestDocsNameLiveCode(t *testing.T) {
	l := newReachLoader(t)
	lines := map[string]int{} // every Go file of the tree, by slash path from the root
	err := filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != l.root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := strings.Count(string(b), "\n")
		if len(b) > 0 && b[len(b)-1] != '\n' {
			n++ // a last line with no newline
		}
		rel, _ := filepath.Rel(l.root, path)
		lines[filepath.ToSlash(rel)] = n
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range liveDocs {
		b, err := os.ReadFile(filepath.Join(l.root, doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)

		names := 0
		for _, span := range codeSpan.FindAllStringSubmatch(fencedBlock.ReplaceAllString(text, ""), -1) {
			m := qualifiedName.FindStringSubmatch(span[1])
			if m == nil || strings.Contains(m[0], "_") || strings.HasSuffix(m[0], ".go") {
				continue
			}
			path := "repro"
			if m[1] != path {
				path += "/internal/" + m[1]
				if fi, err := os.Stat(filepath.Join(l.root, "internal", m[1])); err != nil || !fi.IsDir() {
					continue
				}
			}
			p := l.load(path)
			if p.err != nil {
				t.Fatalf("%s: %v", path, p.err)
			}
			if p.pkg == nil {
				continue // no non-test Go: not a package
			}
			names++
			name, member := m[2], m[3]
			if name == "" {
				name, member = m[4], m[5]
			}
			o := p.pkg.Scope().Lookup(name)
			if o != nil && member != "" {
				o, _, _ = types.LookupFieldOrMethod(o.Type(), true, p.pkg, member)
			}
			if o == nil {
				t.Errorf("%s: `%s` names no declaration in package %s", doc, span[1], m[1])
			}
		}

		files := 0
		for _, m := range goFileCite.FindAllStringSubmatch(text, -1) {
			cited, _, _ := strings.Cut(strings.TrimPrefix(m[0], "./"), ":")
			need := 1
			for _, n := range m[1:] {
				if v, err := strconv.Atoi(n); err == nil {
					need = v
				}
			}
			files++
			longest, found := 0, false
			for rel, n := range lines {
				if rel == cited || strings.HasSuffix(rel, "/"+cited) {
					longest, found = max(longest, n), true
				}
			}
			switch {
			case !found:
				t.Errorf("%s: %s cites a Go file the tree does not have", doc, m[0])
			case longest < need:
				t.Errorf("%s: %s cites line %d of a file of %d lines", doc, m[0], need, longest)
			}
		}

		t.Logf("%s: %d qualified names, %d Go file citations", doc, names, files)
		if names == 0 || files == 0 {
			t.Errorf("%s: no qualified name or no Go file citation found: the patterns no longer read the document", doc)
		}
	}
}
