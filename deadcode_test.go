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
	"reflect"
	"sort"
	"strings"
	"sync"
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
	im := typeCheckModule(t)
	info := im.info

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

// nameAllowed names the package-level constants and variables under
// internal/ that keep no production use on purpose, each with its reason.
var nameAllowed = map[string]string{}

// TestInternalNamesHaveProductionUses fails for each package-level
// constant or variable declared in a non-test file under internal/ that
// nothing outside test files refers to. A constant that no code reads
// shows a value the model does not use.
func TestInternalNamesHaveProductionUses(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	im := typeCheckModule(t)
	names := make(map[types.Object]string)
	for path, files := range im.files {
		if !strings.HasPrefix(path, "fivegsim/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST && gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if id.Name != "_" {
							names[im.info.Defs[id]] = f.Name.Name + "." + id.Name
						}
					}
				}
			}
		}
	}
	used := make(map[types.Object]bool)
	for _, obj := range im.info.Uses {
		used[obj] = true
	}
	var found []string
	allowed := make(map[string]bool)
	for obj, name := range names {
		if used[obj] {
			continue
		}
		if _, ok := nameAllowed[name]; ok {
			allowed[name] = true
			continue
		}
		found = append(found, name)
	}
	sort.Strings(found)
	for _, name := range found {
		t.Errorf("%s is used by no file outside tests: delete it, or move it into a _test.go file", name)
	}
	for name := range nameAllowed {
		if !allowed[name] {
			t.Errorf("allowlisted %s is gone or has a production use: drop it from nameAllowed", name)
		}
	}
}

// fieldAllowed names the struct fields under internal/ that production
// code keeps unread or unset on purpose, each with its reason.
var fieldAllowed = map[string]string{
	"netsim.queue.OnDrop":              "drop observer that tests attach: the netsim drop tests and TestAckFaultsReorderAndDrop count drops with it",
	"netsim.PacketPool.Gets":           "pool leak detector: TestBulkSteadyStateAllocs allows one fresh packet per thousand checkouts",
	"netsim.PacketPool.News":           "pool leak detector: TestBulkSteadyStateAllocs allows one fresh packet per thousand checkouts",
	"transport.CwndSample.Retransmits": "bulk_v1.golden hashes it per sample: the recovery timeline, which the flow totals do not pin",
	"energy.DRXParams.Tidle":           "Table 7's reproduction, which EXPERIMENTS.md cites through energy.ParamsFor field by field",
	"energy.DRXParams.Ton":             "Table 7's reproduction, which EXPERIMENTS.md cites through energy.ParamsFor field by field",
	"energy.DRXParams.T4r5r":           "Table 7's reproduction, which EXPERIMENTS.md cites through energy.ParamsFor field by field",
	"energy.PowerSample.Tech":          "deleting it shrinks T4's power series, which the service benchmark's set-up probe reads as a regression until that probe times admission",
	"pop.ChurnModel.maxN":              "test hook that fills the arena, so TestTelemetryGolden and the churn tests see blocked births",
	"radio.InterferenceTerm.PCI":       "input of the scalar KPI oracle radio.MeasureCell",
	"radio.InterferenceTerm.RSRPdBm":   "input of the scalar KPI oracle radio.MeasureCell",
	"radio.InterferenceTerm.Load":      "input of the scalar KPI oracle radio.MeasureCell",
}

// TestInternalFieldsAreReadAndSet fails for each named field of a struct
// type declared in a non-test file under internal/ that no non-test file
// reads, or that none sets. A field is set as the left side of = or op=,
// the operand of ++ or --, a key or positional element of a composite
// literal, or the root of an index expression in one of those places;
// every other use reads it. Taking its address, calling a pointer method
// on it and slicing it both read and set it. Fields named _ and fields
// with a json tag are exempt: encoding/json reads and sets them. A field
// read only as part of its whole struct (==, a map key, %v) is not seen.
func TestInternalFieldsAreReadAndSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	im := typeCheckModule(t)
	info := im.info

	names := make(map[*types.Var]string)
	for path, files := range im.files {
		if !strings.HasPrefix(path, "fivegsim/internal/") {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fl := range st.Fields.List {
					if fl.Tag != nil && reflect.StructTag(strings.Trim(fl.Tag.Value, "`")).Get("json") != "" {
						continue
					}
					for _, id := range fl.Names {
						if id.Name != "_" {
							names[info.Defs[id].(*types.Var)] = fmt.Sprintf("%s.%s.%s", f.Name.Name, ts.Name.Name, id.Name)
						}
					}
				}
				return true
			})
		}
	}

	set := make(map[*types.Var]bool)
	setOnly := make(map[*ast.Ident]bool) // uses that set the field and do not read it
	// fieldSel returns the selector of the field that e names, through
	// any index expressions around it, or nil.
	var fieldSel func(ast.Expr) *ast.SelectorExpr
	fieldSel = func(e ast.Expr) *ast.SelectorExpr {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.IsField() {
				return e
			}
		case *ast.IndexExpr:
			return fieldSel(e.X)
		}
		return nil
	}
	markSet := func(e ast.Expr, alsoRead bool) {
		if sel := fieldSel(e); sel != nil {
			set[info.Uses[sel.Sel].(*types.Var).Origin()] = true
			setOnly[sel.Sel] = !alsoRead
		}
	}
	for _, files := range im.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSet(lhs, false)
					}
				case *ast.IncDecStmt:
					markSet(n.X, false)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSet(n.X, true)
					}
				case *ast.SliceExpr:
					markSet(n.X, true)
				case *ast.SelectorExpr:
					if sel := info.Selections[n]; sel != nil && sel.Kind() != types.FieldVal {
						if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
							if _, isPtr := info.Types[n.X].Type.Underlying().(*types.Pointer); !isPtr {
								markSet(n.X, true)
							}
						}
					}
				case *ast.CompositeLit:
					typ := info.Types[n].Type.Underlying()
					if ptr, ok := typ.(*types.Pointer); ok {
						typ = ptr.Elem().Underlying()
					}
					st, ok := typ.(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							v := info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()
							set[v] = true
							setOnly[kv.Key.(*ast.Ident)] = true
						} else {
							set[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}
	read := make(map[*types.Var]bool)
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !setOnly[id] {
			read[v.Origin()] = true
		}
	}

	var found []string
	allowed := make(map[string]bool)
	for v, name := range names {
		var why string
		switch {
		case !read[v]:
			why = "production computes it and nothing reads it: delete it"
		case !set[v]:
			why = "its zero value is the only production value: make it a constant or delete it"
		default:
			continue
		}
		if _, ok := fieldAllowed[name]; ok {
			allowed[name] = true
			continue
		}
		found = append(found, name+": "+why)
	}
	sort.Strings(found)
	for _, msg := range found {
		t.Error(msg)
	}
	for name := range fieldAllowed {
		if !allowed[name] {
			t.Errorf("allowlisted %s is gone or both read and set: drop it from fieldAllowed", name)
		}
	}
}

// TestProductionPathsAreClosed fails for each function in a non-test
// file that builds a netsim path and does not close it. A path that is
// never closed keeps its packet slabs from the paths built after it,
// which then allocate their own; F12, X9 and X10 build paths in no
// benchmark workload, so no allocation figure would show it. The path
// is the variable that NewPath's result is stored in, or the slice
// whose element it is stored in; Close must be called on that variable,
// an element of it, or the variable of a range over it.
func TestProductionPathsAreClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	im := typeCheckModule(t)
	netsim := im.checked["fivegsim/internal/netsim"].Scope()
	newPath := netsim.Lookup("NewPath")
	closePath, _, _ := types.LookupFieldOrMethod(types.NewPointer(netsim.Lookup("Path").Type()), false, nil, "Close")
	if newPath == nil || closePath == nil {
		t.Fatal("netsim.NewPath or (*netsim.Path).Close is gone: update the guard")
	}
	// callee returns the function or method a call names, or nil.
	callee := func(call *ast.CallExpr) types.Object {
		switch fn := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			return im.info.Uses[fn]
		case *ast.SelectorExpr:
			return im.info.Uses[fn.Sel]
		}
		return nil
	}
	// root returns the variable x for an expression x or x[i], or nil.
	var root func(ast.Expr) types.Object
	root = func(e ast.Expr) types.Object {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := im.info.Defs[e]; obj != nil {
				return obj
			}
			return im.info.Uses[e]
		case *ast.IndexExpr:
			return root(e.X)
		}
		return nil
	}

	builds := 0
	var found []string
	for _, files := range im.files {
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				built := make(map[types.Object]token.Pos) // path variables and where they are built
				var unbound []token.Pos                   // NewPath calls whose result is kept in no variable
				rangeOver := make(map[types.Object]types.Object)
				var closed []types.Object
				kept := make(map[*ast.CallExpr]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for i, rhs := range n.Rhs {
							if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && callee(call) == newPath && len(n.Lhs) == len(n.Rhs) {
								if v := root(n.Lhs[i]); v != nil {
									built[v] = call.Pos()
									kept[call] = true
								}
							}
						}
					case *ast.RangeStmt:
						if n.Value != nil {
							if v, over := root(n.Value), root(n.X); v != nil && over != nil {
								rangeOver[v] = over
							}
						}
					case *ast.CallExpr:
						if callee(n) == newPath {
							builds++
							if !kept[n] {
								unbound = append(unbound, n.Pos())
							}
						}
						if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && callee(n) == closePath {
							closed = append(closed, root(sel.X))
						}
					}
					return true
				})
				isClosed := make(map[types.Object]bool)
				for _, v := range closed {
					isClosed[v] = true
					if over, ok := rangeOver[v]; ok {
						isClosed[over] = true
					}
				}
				name := fd.Name.Name
				if fd.Recv != nil {
					name = "method " + name
				}
				for _, pos := range unbound {
					found = append(found, fmt.Sprintf("%s: %s builds a path with NewPath without keeping it in a variable, so nothing can close it", im.fset.Position(pos), name))
				}
				for v, pos := range built {
					if !isClosed[v] {
						found = append(found, fmt.Sprintf("%s: %s keeps a path from NewPath in %s and never closes it: call Close on it once its scheduler has stopped", im.fset.Position(pos), name, v.Name()))
					}
				}
			}
		}
	}
	if builds == 0 {
		t.Fatal("no production code calls netsim.NewPath: the guard checks nothing")
	}
	sort.Strings(found)
	for _, msg := range found {
		t.Error(msg)
	}
}

// typeCheckModule returns the module and the benchmark module
// type-checked from their non-test files into one types.Info. The four
// guards share one load.
func typeCheckModule(t *testing.T) *sourceImporter {
	t.Helper()
	im, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

var loadModule = sync.OnceValues(func() (*sourceImporter, error) {
	var pkgs []listedPackage
	for _, dir := range []string{".", "benchmark"} {
		listed, err := goList(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, listed...)
	}
	byPath := make(map[string]listedPackage, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	fset := token.NewFileSet()
	im := &sourceImporter{
		fset:    fset,
		listed:  byPath,
		checked: make(map[string]*types.Package),
		files:   make(map[string][]*ast.File),
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info: &types.Info{
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	for _, p := range pkgs {
		if _, err := im.Import(p.ImportPath); err != nil {
			return nil, err
		}
	}
	return im, nil
})

// goList returns the packages of the module rooted at dir.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %w", dir, err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
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
