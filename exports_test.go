// Export-honesty test: an exported function of an internal/ package is
// part of the interface only while a non-test file reaches it.
// TestEveryExportedFuncHasACaller type-checks the non-test files of the
// module, benchmark/ and examples/ and fails on an exported function, or
// an exported method of an exported type, under internal/ that none of
// them references and that satisfies no interface the module reaches. A
// function only tests call is deleted, or moves into its package's test
// files when a test uses it as a reference (docs/architecture.md,
// "Exported functions have callers").
package repro

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// testSupport are the internal/ packages that exist for tests.
var testSupport = map[string]bool{
	"repro/internal/testutil":      true,
	"repro/internal/lint/linttest": true,
}

// noCaller lists the exported internal/ functions that stay without a
// non-test caller, and why.
var noCaller = map[string]string{
	"cluster.ReplayToCheckpoint": "the checkpoint verifier; in test files it would leave agent.Snapshot serving another package's test",
	"cluster.ResumeReplay":       "the checkpoint verifier, with ReplayToCheckpoint",
	"opt.NumGrad":                "core's tests check analytic gradients against it across the package boundary",
}

// moduleChecker type-checks the parsed packages on demand, each once, and
// takes every other import from export data.
type moduleChecker struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

func (c *moduleChecker) Import(path string) (*types.Package, error) {
	if p := c.pkgs[path]; p != nil {
		return p, nil
	}
	files, ok := c.files[path]
	if !ok {
		return c.std.Import(path)
	}
	conf := types.Config{Importer: c}
	p, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	return p, nil
}

// interfacesByMethod indexes the non-generic interfaces declared at
// package level in every package reachable from pkgs by the names of
// their methods.
func interfacesByMethod(pkgs map[string]*types.Package) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := range iface.NumMethods() {
					byName[iface.Method(i).Name()] = append(byName[iface.Method(i).Name()], iface)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return byName
}

// satisfiesInterface reports whether recv, or a pointer to it, implements
// an interface that has a method of the given name.
func satisfiesInterface(recv types.Type, method string, byName map[string][]*types.Interface) bool {
	for _, iface := range byName[method] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// checkModule type-checks the non-test files parseTree finds and returns
// the checker, whose info covers all of them, and their package paths in
// order.
func checkModule(t *testing.T) (*moduleChecker, []string) {
	t.Helper()
	fset, parsed := parseTree(t)
	c := &moduleChecker{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.Default(),
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	var paths []string
	for _, sf := range parsed {
		if c.files[sf.pkg] == nil {
			paths = append(paths, sf.pkg)
		}
		c.files[sf.pkg] = append(c.files[sf.pkg], sf.ast)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := c.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}
	return c, paths
}

func TestEveryExportedFuncHasACaller(t *testing.T) {
	c, paths := checkModule(t)
	fset := c.fset

	used := map[*types.Func]bool{}
	for _, obj := range c.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	byName := interfacesByMethod(c.pkgs)

	var total, allowed int
	isFlagged := map[string]bool{}
	for _, p := range paths {
		if !strings.HasPrefix(p, "repro/internal/") || testSupport[p] {
			continue
		}
		for _, f := range c.files[p] {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := c.info.Defs[fd.Name].(*types.Func)
				id := strings.TrimPrefix(p, "repro/internal/") + "." + fd.Name.Name
				satisfies := false
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					obj := rt.(*types.Named).Obj()
					if !obj.Exported() {
						continue
					}
					id = strings.TrimPrefix(p, "repro/internal/") + "." + obj.Name() + "." + fd.Name.Name
					satisfies = satisfiesInterface(rt, fd.Name.Name, byName)
				}
				total++
				if used[fn] || satisfies {
					continue
				}
				isFlagged[id] = true
				if _, ok := noCaller[id]; ok {
					allowed++
					continue
				}
				t.Errorf("%s (%s) has no non-test caller: delete it, move it into its package's test files, or give it a reason in noCaller",
					id, fset.Position(fd.Pos()))
			}
		}
	}
	for id := range noCaller {
		if !isFlagged[id] {
			t.Errorf("noCaller names %s, which has a caller now or is not an exported internal/ function: drop it", id)
		}
	}
	t.Logf("exported func count: %d exported functions and methods under internal/, %d of them without a caller (allowlisted)",
		total, allowed)
}
