package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/serve"
)

// oracles names every package-level declaration under internal/ that no
// command, example, benchmark or exported name of package repro reaches and
// that stays anyway, with the reason: it is something a test of live code
// compares against, or is fed by. Whatever an entry calls is kept with it.
// TestEveryDeclarationHasACaller fails on an unreachable declaration that is
// not listed here, and on an entry that has become reachable, is gone, or
// whose name (its last identifier) no test file mentions.
var oracles = map[string]string{
	// Reference implementations: what a test of live code compares against.
	"march.Grid":                     "whole-grid marching cubes, the reference the metacell path, the cluster and the mesh exporters are tested against",
	"metacell.DecodeRecord":          "the allocating record decoder DecodeRecordInto is fuzzed and tested against",
	"geom.(*IndexedMesh).ExpandSoup": "the allocating expansion: welded ≡ soup is checked through it, and ExpandInto against it",
	"geom.UseGatherKernel":           "switches Gather to its portable loop, the reference meshio's decode differential (withKernels) holds the streaming-store kernel to",
	"geom.PoisonSoups":               "fills MakeSoup's uncleared soups with NaN bits in the byte-identity tests of their writers (meshio's v2 differential, cluster's streaming ≡ two-phase), so a triangle never written shows",

	// Measurements a test of live code reads its verdict from.
	"intervaltree.(*Tree).Count":     "stabbing count the interval tree and BBIO tests check against brute force",
	"march.TriangleCount":            "march_test reads the generated case table's triangle counts through it",
	"march.TableTriangles":           "march_test checks every generated case (valid cut edges, manifold fans) through it",
	"meshio.IsClosed":                "watertightness of what Index welds from an extracted sphere",
	"meshio.EulerCharacteristic":     "topology (χ = 2 sphere, 0 torus) of what Index welds",
	"geom.(*Mesh).TotalArea":         "march_test compares an extracted sphere's area with 4πr²",
	"geom.Triangle.Centroid":         "march tests check triangle normals point away from the inside through it",
	"spanspace.(*Histogram2D).Total": "spanspace_test checks the span-space histogram conserves its metacells",
	"blockio.(*Cache).Resident":      "cache_test's bound: resident blocks never exceed capacity, also under concurrent readers",

	// Fixtures: what a test of live code is fed by.
	"blockio.FaultDevice":      "the disk-fault injector behind every error-path test of core, cluster and the pipeline (Config.WrapDevice)",
	"metacell.IDOfRecord":      "core, bbio and metacell tests identify delivered records by it",
	"metacell.EncodeRecord":    "the value-by-value record encoder: the extractor's per-sample oracle, FuzzDecodeRecordInto's round trip and FuzzWelderMatchesSoup's records are made with it",
	"volume.(*Grid).WriteFile": "writes the volume files ReadFile, OpenPlaneFile and the commands' -in flags are tested on",
	"volume.(*Grid).WriteRaw":  "writes the headerless files ReadRaw is tested on",
	"volume.Constant":          "a volume with no active metacell: preprocessing must drop everything, the octree must be empty",
}

// reflected are the methods fmt, errors and encoding/json find by asserting
// for an interface of their own, so that none appears in the calling code.
var reflected = []string{"String", "Error", "Format", "GoString", "Unwrap", "Is", "As", "MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"}

// reachPkg is one type-checked package of the module, non-test files only.
type reachPkg struct {
	rel   string // directory relative to the module root, "." for the root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	err   error
}

// reachLoader type-checks the module's packages from source (repro/... is
// mapped onto the tree, repro/bench included although it is its own module)
// and everything else through the standard library's source importer.
type reachLoader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*reachPkg
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
	}
	p := l.load(path)
	return p.pkg, p.err
}

func (l *reachLoader) load(path string) *reachPkg {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	p := &reachPkg{rel: filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/"))}
	if p.rel == "" {
		p.rel = "."
	}
	l.pkgs[path] = p
	dir := filepath.Join(l.root, p.rel)
	bp, err := build.Default.ImportDir(dir, 0)
	if _, empty := err.(*build.NoGoError); empty || err == nil && len(bp.GoFiles) == 0 {
		delete(l.pkgs, path) // no non-test Go here: not a package of the graph
		return p
	}
	if err != nil {
		p.err = err
		return p
	}
	names := bp.GoFiles
	if p.rel == "bench" { // "everything bench/*.go references": its in-package tests build against the module too
		names = append(names, bp.TestGoFiles...)
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			p.err = err
			return p
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l}
	p.pkg, p.err = conf.Check(path, l.fset, p.files, p.info)
	return p
}

// origin maps a method or field of an instantiated generic type back to the
// declaration every instantiation shares.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// declName prints a declaration the way the oracles table keys it:
// pkg.Name, pkg.T.Method, pkg.(*T).Method.
func declName(o types.Object) string {
	recv := ""
	if f, ok := o.(*types.Func); ok {
		if r := f.Type().(*types.Signature).Recv(); r != nil {
			switch t := r.Type().(type) {
			case *types.Pointer:
				recv = "(*" + t.Elem().(*types.Named).Obj().Name() + ")."
			case *types.Named:
				recv = t.Obj().Name() + "."
			}
		}
	}
	return o.Pkg().Name() + "." + recv + o.Name()
}

// site is a piece of source and the type information to read it with.
type site struct {
	node ast.Node
	info *types.Info
}

// reachGraph is the declaration graph of the loaded packages: an edge from a
// declaration to every package-level object its source mentions.
type reachGraph struct {
	decl   map[types.Object]site // package-level object → its FuncDecl or Spec
	always []site                // init functions and `var _ = …`: they run whoever calls what
	iface  map[string]bool       // method names of every interface non-test code mentions
}

func newReachGraph(pkgs map[string]*reachPkg) *reachGraph {
	g := &reachGraph{decl: map[types.Object]site{}, iface: map[string]bool{}}
	for _, m := range reflected {
		g.iface[m] = true
	}
	for _, p := range pkgs {
		add := func(name *ast.Ident, n ast.Node) {
			if d, ok := n.(*ast.FuncDecl); name.Name == "_" || ok && d.Recv == nil && name.Name == "init" {
				g.always = append(g.always, site{n, p.info})
			} else if o := p.info.Defs[name]; o != nil {
				g.decl[o] = site{n, p.info}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, s)
							}
						}
					}
				}
			}
		}
		seen := map[types.Type]bool{}
		for _, tv := range p.info.Types {
			g.interfacesIn(tv.Type, seen, 0)
		}
	}
	return g
}

// interfacesIn records the method names of every interface that appears in
// t: t itself, what it points at or holds, and the parameters and results of
// a function type — which is how sort.Sort(x) or fmt.Fprint(w, x) mention an
// interface the calling code never names.
func (g *reachGraph) interfacesIn(t types.Type, seen map[types.Type]bool, depth int) {
	if t == nil || seen[t] || depth > 4 {
		return
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if it, ok := u.Underlying().(*types.Interface); ok {
			g.interfacesIn(it, seen, depth)
		}
	case *types.Alias:
		g.interfacesIn(types.Unalias(u), seen, depth)
	case *types.Interface:
		for i := 0; i < u.NumMethods(); i++ {
			g.iface[u.Method(i).Name()] = true
		}
	case *types.Pointer:
		g.interfacesIn(u.Elem(), seen, depth+1)
	case *types.Slice:
		g.interfacesIn(u.Elem(), seen, depth+1)
	case *types.Array:
		g.interfacesIn(u.Elem(), seen, depth+1)
	case *types.Chan:
		g.interfacesIn(u.Elem(), seen, depth+1)
	case *types.Map:
		g.interfacesIn(u.Key(), seen, depth+1)
		g.interfacesIn(u.Elem(), seen, depth+1)
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				g.interfacesIn(tup.At(i).Type(), seen, depth+1)
			}
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			g.interfacesIn(u.Field(i).Type(), seen, depth+1)
		}
	}
}

// reach returns every declaration reachable from roots. A type brings with
// it those of its methods whose name belongs to some interface (the
// conservative stand-in for "is called through that interface").
func (g *reachGraph) reach(roots []types.Object) map[types.Object]bool {
	seen := map[types.Object]bool{}
	var work []types.Object
	push := func(o types.Object) {
		o = origin(o)
		if _, ok := g.decl[o]; ok && !seen[o] {
			seen[o] = true
			work = append(work, o)
		}
	}
	visit := func(s site) {
		ast.Inspect(s.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := s.info.Uses[id]; o != nil {
					push(o)
				}
			}
			return true
		})
	}
	for _, s := range g.always {
		visit(s)
	}
	for _, o := range roots {
		push(o)
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		visit(g.decl[o])
		if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); g.iface[m.Name()] {
						push(m)
					}
				}
			}
		}
	}
	return seen
}

// TestEveryDeclarationHasACaller is PR 15's "every option has a caller" one
// level down: a package-level declaration under internal/ stays only if a
// non-test file reaches it from a command's or example's main, from the
// benchmark, or from an exported name of package repro — or if the oracles
// table says which test needs it and why.
func TestEveryDeclarationHasACaller(t *testing.T) {
	if _, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", "fmt", "print.go")); err != nil {
		t.Skipf("GOROOT sources not found under %q (%v): the source importer has nothing to type-check the standard library from", build.Default.GOROOT, err)
	}
	// net and os/user have cgo variants the source importer would run cgo
	// for; the pure-Go files declare the same API.
	defer func(v bool) { build.Default.CgoEnabled = v }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false

	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	l := &reachLoader{root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*reachPkg{}}
	mentioned := map[string]bool{} // every identifier the module's test files use
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if name := d.Name(); rel != "." && (name[0] == '.' || name[0] == '_' || name == "testdata" || rel == filepath.Join("bench", "out")) {
			return filepath.SkipDir
		}
		imp := "repro"
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		if p := l.load(imp); p.err != nil {
			t.Errorf("%s: %v", imp, p.err)
		}
		return mentionsIn(fset, path, mentioned)
	})
	if err != nil || t.Failed() {
		t.Fatalf("loading the module: %v", err)
	}
	g := newReachGraph(l.pkgs)

	var roots []types.Object
	internal := map[string]types.Object{} // by declName
	for o := range g.decl {
		rel := l.pkgs[o.Pkg().Path()].rel
		switch {
		case strings.HasPrefix(rel, "internal"+string(filepath.Separator)):
			internal[declName(o)] = o
		case rel == "bench":
			roots = append(roots, o) // everything the benchmark declares, hence everything it references
		case rel == "." && o.Exported():
			roots = append(roots, o) // the public API
		case o.Name() == "main" && o.Parent() == o.Pkg().Scope():
			roots = append(roots, o) // func main of every cmd/* and examples/*
		}
	}

	live := g.reach(roots)
	for name, why := range oracles {
		if last := name[strings.LastIndex(name, ".")+1:]; !mentioned[last] {
			t.Errorf("oracles[%q] is stale: no test file mentions %s", name, last)
		}
		o, ok := internal[name]
		switch {
		case why == "":
			t.Errorf("oracles[%q] gives no reason", name)
		case !ok:
			t.Errorf("oracles[%q] is stale: no such declaration under internal/", name)
		case live[o]:
			t.Errorf("oracles[%q] is stale: non-test code reaches it now", name)
		default:
			roots = append(roots, o)
		}
	}
	live = g.reach(roots)

	var dead []string
	for name, o := range internal {
		if !live[o] {
			pos := fset.Position(o.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			dead = append(dead, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, name))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: nothing reaches it; delete it, or name it in oracles with the test that needs it", d)
	}
}

// mentionsIn adds every identifier that the test files of dir use, under the
// current build constraints, to mentioned.
func mentionsIn(fset *token.FileSet, dir string, mentioned map[string]bool) error {
	bp, _ := build.Default.ImportDir(dir, 0) // no Go files: no tests; l.load reports any other error
	for _, name := range append(bp.TestGoFiles, bp.XTestGoFiles...) {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentioned[id.Name] = true
			}
			return true
		})
	}
	return nil
}

// configSurface is the number of values a caller can set across the five
// configuration types of the production path. It moves only on purpose: an
// option added to one of them fails TestConfigSurface until this number is
// changed in the same commit, where a reviewer sees it. 24 since
// cluster.Options.KeepChunks: the serving tier keeps a surface as the chunks
// it sends, while every direct caller of Extract reads soup (KeepMeshes).
const configSurface = 24

// TestConfigSurface counts the exported fields of the configuration types.
func TestConfigSurface(t *testing.T) {
	total := 0
	for _, cfg := range []any{cluster.Options{}, cluster.Config{}, serve.Config{}, dist.ReplicaConfig{}, dist.RouterConfig{}} {
		typ, n := reflect.TypeOf(cfg), 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		t.Logf("%s: %d", typ, n)
		total += n
	}
	if total != configSurface {
		t.Errorf("the configuration types have %d settable values, the pinned surface is %d (per type: -v)", total, configSurface)
	}
}
