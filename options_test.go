// Option-honesty test: an exported field of an option struct is part of
// the interface only while somebody outside its package sets it.
// TestEveryOptionHasACaller fails on a field of the structs below that no
// non-test file of the module, benchmark/ or examples/ sets from outside
// the declaring package; such a value is a constant and belongs next to
// the code that reads it (docs/architecture.md, "Where a run's parameters
// come from").
package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	{"repro/internal/sim", "ClusterAutoscaleConfig"},
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
	"sched.PolluxOptions.Workers":         "selects the serial reference the bit-identity tests compare against",
	"sim.AutoscaleConfig.Engine":          "selects the fixed-step reference the parity tests compare against",
	"sim.AutoscaleConfig.MaxTime":         "the autoscale tests bound a run that does not complete with it",
	"sim.Config.Autoscale":                "the paper's Sec. 4.2.2 mode; no main reaches it, a later issue gives it a caller or removes it",
	"sim.ClusterAutoscaleConfig.MinNodes": "reached only through sim.Config.Autoscale",
	"sim.ClusterAutoscaleConfig.MaxNodes": "reached only through sim.Config.Autoscale",
	"cluster.Trainer.DisableCompression":  "the unpaced clock the trainer tests run Trainer.Run under",
	"cluster.Trainer.FixedBatch":          "per-job trace value; cluster.Replay, in package, is the caller",
	"cluster.Trainer.UserGPUs":            "per-job trace value; cluster.Replay, in package, is the caller",
	"cluster.Trainer.UserBatch":           "per-job trace value; cluster.Replay, in package, is the caller",
	"cluster.Trainer.Tenant":              "per-job trace value; cluster.Replay, in package, is the caller",
	"cluster.Trainer.Deadline":            "per-job trace value; cluster.Replay, in package, is the caller",
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
func parseTree(t *testing.T) []sourceFile {
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
	return files
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
	files := parseTree(t)

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
	for id := range callerless {
		if !isField[id] {
			t.Errorf("callerless names %s, which is not a field of an option struct", id)
		}
	}
	t.Logf("option count: %d exported fields over the %d option structs (%d before ISSUE 23)",
		total, len(optionStructs), optionsBefore)
}
