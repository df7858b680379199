// Option-honesty test: an exported field of an option struct is part of
// the interface only while somebody outside its package sets it.
// TestEveryOptionHasACaller fails on a field of the structs below that no
// non-test file of the module, benchmark/ or examples/ sets from outside
// the declaring package; such a value is a constant and belongs next to
// the code that reads it (docs/architecture.md, "Where a run's parameters
// come from"). It also fails on an exported field of any other exported
// struct under internal/ that no such file writes at all, in its package or
// outside it: only a test sets it, so the program reads it as zero.
package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// structRef names a struct type by the import path of its package.
type structRef struct{ pkg, name string }

func (r structRef) String() string { return path.Base(r.pkg) + "." + r.name }

// optionStructs are the structs a caller configures a run through.
var optionStructs = []structRef{
	{"repro/internal/sched", "PolluxOptions"},
	{"repro/internal/ga", "Options"},
	{"repro/internal/sim", "Config"},
	{"repro/internal/sim", "AutoscaleConfig"},
	{"repro/internal/cluster", "ReplayConfig"},
	{"repro/internal/cluster", "Trainer"},
	{"repro/internal/opt", "LBFGSBOptions"},
	{"repro/internal/admit", "Options"},
}

// optionsBefore is the exported field count of optionStructs before the
// fields no caller set became constants (ISSUE 23).
const optionsBefore = 88

// callerless lists the fields that stay exported without an outside
// caller, and why.
var callerless = map[string]string{
	"sim.AutoscaleConfig.MaxTime":        "the autoscale tests bound a run that does not complete with it",
	"cluster.Trainer.DisableCompression": "the unpaced clock the trainer tests run Trainer.Run under",
	"cluster.Trainer.FixedBatch":         "per-job trace value; cluster.Replay, in package, is the caller",
	"cluster.Trainer.UserGPUs":           "per-job trace value; cluster.Replay, in package, is the caller",
	"cluster.Trainer.UserBatch":          "per-job trace value; cluster.Replay, in package, is the caller",
	"cluster.Trainer.Tenant":             "per-job trace value; cluster.Replay, in package, is the caller",
	"cluster.Trainer.Deadline":           "per-job trace value; cluster.Replay, in package, is the caller",
	"eventsim.Wall.NowFn":                "test hook: the paced-clock tests read a fake clock through it; nil is time.Now",
	"eventsim.Wall.SleepFn":              "test hook: the paced-clock tests record the sleeps through it; nil is time.Sleep",
}

// sourceFile is one parsed non-test Go file and what its package names
// mean.
type sourceFile struct {
	pkg     string            // import path of the file's package
	imports map[string]string // package name in this file -> import path
	ast     *ast.File
}

// parseTree parses the non-test Go files under the repo root (the module,
// examples/ and the nested benchmark/ module), testdata excluded.
func parseTree(t *testing.T) (*token.FileSet, []sourceFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && p != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sf := sourceFile{
			pkg:     path.Join("repro", filepath.ToSlash(filepath.Dir(p))),
			imports: map[string]string{},
			ast:     f,
		}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			sf.imports[name] = ip
		}
		files = append(files, sf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// typeOf resolves a type expression — T, *T, pkg.T or *pkg.T — as written
// in the file to the struct it names.
func (sf sourceFile) typeOf(e ast.Expr) structRef {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch e := e.(type) {
	case *ast.Ident:
		return structRef{sf.pkg, e.Name}
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return structRef{sf.imports[x.Name], e.Sel.Name}
		}
	}
	return structRef{}
}

func TestEveryOptionHasACaller(t *testing.T) {
	_, files := parseTree(t)

	// The exported fields of every option struct, in declaration order, and
	// the struct a function of a given name returns first (by name only:
	// enough to type `cfg := sc.simConfig()`).
	fields := map[structRef][]string{}
	returns := map[string]structRef{}
	isOption := map[structRef]bool{}
	for _, ref := range optionStructs {
		isOption[ref] = true
	}
	for _, sf := range files {
		ast.Inspect(sf.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if ref := (structRef{sf.pkg, n.Name.Name}); ok && isOption[ref] {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields[ref] = append(fields[ref], id.Name)
							}
						}
					}
				}
			case *ast.FuncDecl:
				if res := n.Type.Results; res != nil {
					if ref := sf.typeOf(res.List[0].Type); isOption[ref] {
						returns[n.Name.Name] = ref
					}
				}
			}
			return true
		})
	}

	// set[struct][field]: a file outside the struct's package sets the
	// field, in a keyed literal of the struct type or by assigning to the
	// field of a variable the function declares with that type.
	set := map[structRef]map[string]bool{}
	mark := func(sf sourceFile, ref structRef, field string) {
		if !isOption[ref] || ref.pkg == sf.pkg {
			return
		}
		if set[ref] == nil {
			set[ref] = map[string]bool{}
		}
		set[ref][field] = true
	}
	for _, sf := range files {
		for _, decl := range sf.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			vars := map[string]structRef{}
			for _, fl := range fn.Type.Params.List {
				for _, id := range fl.Names {
					vars[id.Name] = sf.typeOf(fl.Type)
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					ref := sf.typeOf(n.Type)
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								mark(sf, ref, key.Name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range n.Names {
						vars[id.Name] = sf.typeOf(n.Type)
					}
				case *ast.AssignStmt:
					if n.Tok == token.DEFINE && len(n.Rhs) == 1 {
						rhs := n.Rhs[0]
						if amp, ok := rhs.(*ast.UnaryExpr); ok && amp.Op == token.AND {
							rhs = amp.X
						}
						var ref structRef
						switch rhs := rhs.(type) {
						case *ast.CompositeLit:
							ref = sf.typeOf(rhs.Type)
						case *ast.Ident:
							ref = vars[rhs.Name]
						case *ast.CallExpr:
							switch fun := rhs.Fun.(type) {
							case *ast.Ident:
								ref = returns[fun.Name]
							case *ast.SelectorExpr:
								ref = returns[fun.Sel.Name]
							}
						}
						if id, ok := n.Lhs[0].(*ast.Ident); ok {
							vars[id.Name] = ref
						}
						return true
					}
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); ok {
								mark(sf, vars[x.Name], sel.Sel.Name)
							}
						}
					}
				}
				return true
			})
		}
	}

	total, isField := 0, map[string]bool{}
	for _, ref := range optionStructs {
		if len(fields[ref]) == 0 {
			t.Fatalf("%s: struct not found, or it has no exported field", ref)
		}
		total += len(fields[ref])
		for _, field := range fields[ref] {
			id := ref.String() + "." + field
			_, allowed := callerless[id]
			switch called := set[ref][field]; {
			case !called && !allowed:
				t.Errorf("%s is set by no non-test file outside %s: make it a constant next to the code that reads it, or give it a reason in callerless", id, ref.pkg)
			case called && allowed:
				t.Errorf("%s has a caller now: drop it from callerless", id)
			}
			isField[id] = true
		}
	}

	// Every other exported struct under internal/: an exported field that
	// no non-test file writes, anywhere, is read as its zero value only.
	c, paths := checkModule(t)
	written := writtenFields(c, paths)
	others, otherFields := 0, 0
	for _, p := range paths {
		if !strings.HasPrefix(p, "repro/internal/") || testSupport[p] {
			continue
		}
		scope := c.pkgs[p].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || isOption[structRef{p, name}] {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			others++
			for i := range st.NumFields() {
				fv := st.Field(i)
				if !fv.Exported() {
					continue
				}
				otherFields++
				id := path.Base(p) + "." + name + "." + fv.Name()
				_, allowed := callerless[id]
				switch {
				case !written[fv] && !allowed:
					t.Errorf("%s (%s) is written by no non-test file: delete it, or give it a reason in callerless",
						id, c.fset.Position(fv.Pos()))
				case written[fv] && allowed:
					t.Errorf("%s is written now: drop it from callerless", id)
				}
				isField[id] = true
			}
		}
	}

	for id := range callerless {
		if !isField[id] {
			t.Errorf("callerless names %s, which is not an exported field of an exported struct under internal/", id)
		}
	}
	t.Logf("option count: %d exported fields over the %d option structs (%d before their callerless fields became constants); %d exported fields over %d other exported structs",
		total, len(optionStructs), optionsBefore, otherFields, others)
}

// writtenFields returns the struct fields the type-checked non-test files
// write: assigned (as the root of the left-hand side, so an element or a
// cell of the field counts), incremented, named in a keyed struct literal,
// implied by a positional one, or passed by address.
func writtenFields(c *moduleChecker, paths []string) map[*types.Var]bool {
	written := map[*types.Var]bool{}
	field := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				if sel := c.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					written[sel.Obj().(*types.Var).Origin()] = true
				}
			}
			return
		}
	}
	for _, p := range paths {
		for _, f := range c.files[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						field(lhs)
					}
				case *ast.IncDecStmt:
					field(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						field(n.X)
					}
				case *ast.CompositeLit:
					typ := c.info.Types[n].Type
					if ptr, ok := typ.(*types.Pointer); ok {
						typ = ptr.Elem() // an element of []*T{{...}}
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if v, ok := c.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								written[v.Origin()] = true
							}
						} else if i < st.NumFields() {
							written[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}
	return written
}
