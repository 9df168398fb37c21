package fivegsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the functions under internal/ that keep no
// production caller on purpose, each with its reason.
var testOnlyAllowed = map[string]string{
	"radio.RSRPAt":                  "scalar RSRP oracle that the radio, deploy and coverage equivalence suites compare the batch kernel against",
	"radio.MeasureCell":             "scalar KPI oracle that the radio, deploy and coverage equivalence suites compare the batch kernel against",
	"handoff.EventType.Description": "Table 5's event text, which EXPERIMENTS.md cites as the T5 reproduction",
	"des.(*Scheduler).Run":          "netsim's tests drain the scheduler with it; production bounds every run with RunUntil",
}

// listedPackage is the part of `go list -json` the guard reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// TestInternalFuncsHaveProductionCallers type-checks the module and the
// benchmark module from source and fails for each function or method
// declared in a non-test file under internal/ that nothing outside test
// files refers to. A reference from the function's own body does not
// count, and a method that implements an interface is exempt: its
// callers go through the interface.
func TestInternalFuncsHaveProductionCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	var pkgs []listedPackage
	for _, dir := range []string{".", "benchmark"} {
		pkgs = append(pkgs, goList(t, dir)...)
	}
	byPath := make(map[string]listedPackage, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}

	fset := token.NewFileSet()
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	im := &sourceImporter{
		fset:    fset,
		listed:  byPath,
		checked: make(map[string]*types.Package),
		files:   make(map[string][]*ast.File),
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info:    info,
	}
	for _, p := range pkgs {
		if _, err := im.Import(p.ImportPath); err != nil {
			t.Fatal(err)
		}
	}

	// Every function and method declared under internal/, with the extent
	// of its declaration so that self-references can be told apart.
	type decl struct {
		fn       *types.Func
		pos, end token.Pos
	}
	var decls []decl
	for path, files := range im.files {
		if !strings.HasPrefix(path, "fivegsim/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				decls = append(decls, decl{info.Defs[fd.Name].(*types.Func), fd.Pos(), fd.End()})
			}
		}
	}
	declOf := make(map[*types.Func]decl, len(decls))
	for _, d := range decls {
		declOf[d.fn] = d
	}
	called := make(map[*types.Func]bool)
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d, ok := declOf[fn]; ok && id.Pos() >= d.pos && id.Pos() < d.end {
			continue
		}
		called[fn] = true
	}

	ifaces := im.interfaces(t)
	var found []string
	allowed := make(map[string]bool)
	for _, d := range decls {
		if called[d.fn] || implementsInterface(d.fn, ifaces) {
			continue
		}
		name := funcName(d.fn)
		if _, ok := testOnlyAllowed[name]; ok {
			allowed[name] = true
			continue
		}
		found = append(found, name)
	}
	sort.Strings(found)
	for _, name := range found {
		t.Errorf("%s has no caller outside test files: move it into a _test.go file or delete it", name)
	}
	for name := range testOnlyAllowed {
		if !allowed[name] {
			t.Errorf("allowlisted %s is gone or has a production caller: drop it from testOnlyAllowed", name)
		}
	}
}

// goList returns the packages of the module rooted at dir.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// sourceImporter type-checks the listed packages from their non-test
// files into one shared types.Info and hands every other import to the
// standard library's source importer.
type sourceImporter struct {
	fset    *token.FileSet
	listed  map[string]listedPackage
	checked map[string]*types.Package
	files   map[string][]*ast.File
	std     types.ImporterFrom
	info    *types.Info
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.checked[path]; ok {
		return pkg, nil
	}
	lp, ok := im.listed[path]
	if !ok {
		return im.std.ImportFrom(path, "", 0)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(lp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	im.checked[path] = pkg
	im.files[path] = files
	return pkg, nil
}

// errorProtocol declares the interfaces that package errors asserts
// inside its function bodies, which the source importer does not check.
const errorProtocol = `package protocol
type is interface{ Is(error) bool }
type as interface{ As(any) bool }
type unwrap interface{ Unwrap() error }
type unwrapAll interface{ Unwrap() []error }
`

// interfaces returns every interface with methods that the checked code
// can dispatch through: the named interfaces of every package it
// imports, directly or not, the interface literals in its own code and
// the error protocol.
func (im *sourceImporter) interfaces(t *testing.T) []*types.Interface {
	t.Helper()
	f, err := parser.ParseFile(im.fset, "protocol.go", errorProtocol, 0)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := (&types.Config{}).Check("protocol", im.fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []*types.Interface
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			out = append(out, it)
		}
	}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	walk(proto)
	add(types.Universe.Lookup("error").Type())
	for _, pkg := range im.checked {
		walk(pkg)
	}
	for _, tv := range im.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	return out
}

// implementsInterface reports whether fn is a method through which its
// receiver type satisfies an interface that has a method of fn's name.
func implementsInterface(fn *types.Func, ifaces []*types.Interface) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
	}
	return false
}

// funcName renders fn as pkg.Func, pkg.T.M or pkg.(*T).M.
func funcName(fn *types.Func) string {
	pkg := fn.Pkg().Name()
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		return fmt.Sprintf("%s.(*%s).%s", pkg, ptr.Elem().(*types.Named).Obj().Name(), fn.Name())
	}
	return fmt.Sprintf("%s.%s.%s", pkg, recv.(*types.Named).Obj().Name(), fn.Name())
}
