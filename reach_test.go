// Reachability: every field of registry.Spec must be turned by something
// that measures it — a record sweep, a conformance scenario or a benchmark
// workload — and every exported call of package mpi must have a caller. A
// knob nothing sets or a call nothing makes is either given a check or
// deleted; there is no allowlist.
package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/platform/registry"
)

// TestEverySpecFieldIsMeasured requires each registry.Spec field to be set
// in at least one source that measures it:
//   - the record sweeps: non-test files in internal/bench;
//   - the conformance scenarios: every file in internal/conformance;
//   - the benchmark workloads: benchmark/workloads.go.
func TestEverySpecFieldIsMeasured(t *testing.T) {
	var files []string
	for _, glob := range []string{"internal/bench/*.go", "internal/conformance/*.go", "benchmark/workloads.go"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m {
			if !strings.HasPrefix(f, "internal/bench/") || !strings.HasSuffix(f, "_test.go") {
				files = append(files, f)
			}
		}
	}
	set := map[string]bool{}
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		specFieldsSet(file, set)
	}
	typ := reflect.TypeOf(registry.Spec{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !set[name] {
			t.Errorf("Spec.%s is set by no record sweep (internal/bench), conformance scenario (internal/conformance) or benchmark workload (benchmark/workloads.go)", name)
		}
	}
}

// specFieldsSet adds to set the Spec fields file sets, read from the syntax
// alone: the keys of registry.Spec literals (explicit, or elided inside a
// slice or map literal of Specs) and assignments to a field of a Spec. An
// expression is a Spec when it is such a literal, a registry.SpecFor call, a
// selector .Spec (a struct field holding one), or a name the file declares
// with that type, assigns from a Spec, or ranges over a slice of them — the
// type checker's answer for the files read, with names tracked per file
// rather than per scope.
func specFieldsSet(file *ast.File, set map[string]bool) {
	specs, specSlices := map[string]bool{}, map[string]bool{}
	isSpec := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return specs[e.Name]
		case *ast.SelectorExpr:
			return e.Sel.Name == "Spec"
		case *ast.CompositeLit:
			return isRegistry(e.Type, "Spec")
		case *ast.CallExpr:
			return isRegistry(e.Fun, "SpecFor")
		}
		return false
	}
	isSlice := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return specSlices[e.Name]
		case *ast.CompositeLit:
			return elemIsSpec(e.Type)
		}
		return false
	}
	// Grow the name sets to a fixpoint: a declaration may follow its use.
	for changed := true; changed; {
		changed = false
		mark := func(m map[string]bool, id *ast.Ident, ok bool) {
			if ok && !m[id.Name] {
				m[id.Name] = true
				changed = true
			}
		}
		bind := func(id *ast.Ident, typ, value ast.Expr) {
			mark(specs, id, isRegistry(typ, "Spec") || value != nil && isSpec(value))
			mark(specSlices, id, elemIsSpec(typ) || value != nil && isSlice(value))
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					bind(id, n.Type, nil)
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					var value ast.Expr
					if i < len(n.Values) {
						value = n.Values[i]
					}
					bind(id, n.Type, value)
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							bind(id, nil, n.Rhs[i])
						}
					}
				}
			case *ast.RangeStmt:
				if id, ok := n.Value.(*ast.Ident); ok {
					mark(specs, id, isSlice(n.X))
				}
			}
			return true
		})
	}
	keys := func(lit *ast.CompositeLit) {
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					set[id.Name] = true
				}
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if isRegistry(n.Type, "Spec") {
				keys(n)
			}
			if elemIsSpec(n.Type) {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						elt = kv.Value
					}
					if lit, ok := elt.(*ast.CompositeLit); ok && lit.Type == nil {
						keys(lit)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && isSpec(sel.X) {
					set[sel.Sel.Name] = true
				}
			}
		}
		return true
	})
}

// isRegistry reports whether e names registry.<name>, through a pointer.
func isRegistry(e ast.Expr, name string) bool {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "registry"
}

// elemIsSpec reports whether e is a slice, array or map type of Specs.
func elemIsSpec(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ArrayType:
		return isRegistry(e.Elt, "Spec")
	case *ast.MapType:
		return isRegistry(e.Value, "Spec")
	}
	return false
}

// TestEveryMPIExportIsCalled requires each exported function, method,
// constant and variable of package mpi to be referenced outside the file
// that declares it (types are reached through their constructors): from
// another package, another file of mpi, or a test, anywhere in the tree
// (benchmark/ included). References are matched by name alone — a selector
// x.Name anywhere, or a bare Name inside package mpi — so a name shared with
// something else can hide an uncalled export but never flags a called one.
func TestEveryMPIExportIsCalled(t *testing.T) {
	fset := token.NewFileSet()
	type export struct{ file, what string }
	declared := map[string][]export{}    // exported name -> its declarations
	refs := map[string]map[string]bool{} // name -> files referencing it
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		inMPI := filepath.Dir(path) == "mpi"
		names := map[*ast.Ident]bool{} // declarations, which are no reference
		exported := inMPI && !strings.HasSuffix(path, "_test.go")
		declare := func(id *ast.Ident, recv *ast.FieldList) {
			names[id] = true
			if !exported || !id.IsExported() {
				return
			}
			what := "mpi." + id.Name
			if recv != nil {
				typ := recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				what = "mpi." + typ.(*ast.Ident).Name + "." + id.Name
			}
			declared[id.Name] = append(declared[id.Name], export{path, what})
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				declare(decl.Name, decl.Recv)
			case *ast.GenDecl:
				if decl.Tok != token.CONST && decl.Tok != token.VAR {
					continue
				}
				for _, spec := range decl.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						declare(id, nil)
					}
				}
			}
		}
		ref := func(id *ast.Ident) {
			if refs[id.Name] == nil {
				refs[id.Name] = map[string]bool{}
			}
			refs[id.Name][path] = true
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				ref(n.Sel)
			case *ast.Ident:
				if inMPI && !names[n] {
					ref(n)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(declared)) {
		for _, d := range declared[name] {
			if len(refs[name]) == 0 || len(refs[name]) == 1 && refs[name][d.file] {
				t.Errorf("%s (%s) is referenced nowhere outside its own file", d.what, d.file)
			}
		}
	}
}
