package lint

import (
	"go/ast"
	"go/types"
)

// AliasRet enforces the deep-copy discipline on mutex-guarded state: a
// struct that carries a sync.Mutex/RWMutex guards its map, slice, and
// pointer fields, and handing such a field out uncopied leaks guarded
// state past the lock — the caller can then read or mutate it while no
// lock is held.
//
// Guarded fields are object facts (GuardedFieldFact), so an accessor in
// another package that resolves the struct through export data is
// checked too. Two shapes are flagged:
//
//   - returning a guarded field directly (`return s.placed`) — the copy
//     idioms (`append([]T(nil), s.f...)`, make+copy) are calls, not
//     field selectors, and pass untouched;
//   - storing an uncopied element of a guarded container outside the
//     struct: while ranging it (`for job, row := range s.placed {
//     placed[job] = row }` — the exact shallow-copy bug PR 7 fixed by
//     hand in cluster.Snapshot: the outer container is fresh but every
//     row still aliases guarded memory), or after reading one element,
//     through any number of field steps and locals
//     (`view.Current[i] = s.state.rows[name].row`, or `p := s.rows[k]`
//     ... `out = append(out, p.row)`).
//
// The analyzer is deliberately field-grained and conservative: it does
// not prove which mutex guards which field (a struct with any mutex
// marks all its alias-typed fields), so an intentionally shared handle
// — a field that is itself synchronized, or immutable after
// construction — is justified in place with //pollux:aliasret-ok, and
// the justification documents the sharing contract.
var AliasRet = &Analyzer{
	Name:      "aliasret",
	Doc:       "flags returning a map/slice/pointer field of a mutex-guarded struct, or storing an element of one outside the struct, without a copy (cross-package facts; the cluster.Snapshot shallow-row discipline)",
	Directive: "aliasret-ok",
	Run:       runAliasRet,
}

// GuardedFieldFact marks field Field of struct type Struct as guarded by
// the struct's mutex field Guard.
type GuardedFieldFact struct {
	Struct string
	Field  string
	Guard  string
}

// AFact marks GuardedFieldFact as a fact type.
func (*GuardedFieldFact) AFact() {}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// aliasType reports whether t is a type whose value aliases backing
// store: map, slice, or pointer (interfaces, channels, and funcs are
// left out — sharing those is a synchronization contract of its own).
func aliasType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice, *types.Pointer:
		return true
	}
	return false
}

func runAliasRet(pass *Pass) error {
	info := pass.TypesInfo

	// Phase 1: export guarded-field facts for every mutex-carrying named
	// struct type declared in this package.
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, ok := info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				guard := ""
				for i := 0; i < st.NumFields(); i++ {
					if isSyncMutex(st.Field(i).Type()) {
						guard = st.Field(i).Name()
						break
					}
				}
				if guard == "" {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					fld := st.Field(i)
					if !isSyncMutex(fld.Type()) && aliasType(fld.Type()) {
						pass.ExportFieldFact(obj.Name(), fld.Name(), &GuardedFieldFact{
							Struct: obj.Name(),
							Field:  fld.Name(),
							Guard:  guard,
						})
					}
				}
			}
		}
	}

	// guardedSel resolves a selector to a guarded field's fact.
	guardedSel := func(sel *ast.SelectorExpr) (*GuardedFieldFact, string) {
		fieldVar, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok || !fieldVar.IsField() {
			return nil, ""
		}
		owner := fieldOwner(info, sel, fieldVar)
		if owner == nil {
			return nil, ""
		}
		var fact GuardedFieldFact
		if pass.FieldFact(owner.Obj().Pkg(), owner.Obj().Name(), fieldVar.Name(), &fact) {
			display := owner.Obj().Name() + "." + fieldVar.Name()
			if owner.Obj().Pkg() != nil && owner.Obj().Pkg() != pass.Pkg {
				display = owner.Obj().Pkg().Name() + "." + display
			}
			return &fact, display
		}
		return nil, ""
	}

	// elems maps a local bound to an element of a guarded container to how
	// it got there, so a leak through a local (`p := s.rows[k]` ...
	// `dst[i] = p.row`) is followed to the store.
	elems := map[types.Object]*guardedElem{}
	// elemOf resolves an alias-typed expression that reaches into a
	// guarded container: a selector/index chain over a guarded field with
	// at least one index step (s.rows[k], s.rows[k].row), or a chain
	// rooted at a local already bound to such an element (row, p.row).
	elemOf := func(e ast.Expr) *guardedElem {
		if t := info.TypeOf(e); t == nil || !aliasType(t) {
			return nil
		}
		indexed := false
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				indexed, e = true, x.X
			case *ast.SelectorExpr:
				if fact, display := guardedSel(x); fact != nil {
					if !indexed {
						return nil // the field itself: the return check's business
					}
					return &guardedElem{display, rootObject(info, x), "after reading an element of"}
				}
				e = x.X
			case *ast.Ident:
				return elems[info.ObjectOf(x)]
			default:
				return nil
			}
		}
	}

	// Phase 2: flag direct returns and stores of uncopied elements.
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					sel, ok := ast.Unparen(res).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					fact, display := guardedSel(sel)
					if fact == nil || pass.exempt(sel.Pos(), "aliasret-ok") {
						continue
					}
					pass.Reportf(sel.Pos(), "returning mutex-guarded field %s (guarded by %q) without a copy: the caller holds an alias it can use outside the lock — return a copy (or justify with //pollux:aliasret-ok <reason>)", display, fact.Guard)
				}
			case *ast.RangeStmt:
				// `for k, row := range s.guarded`: row is an element.
				sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr)
				if !ok {
					break
				}
				if fact, display := guardedSel(sel); fact != nil {
					if id, ok := n.Value.(*ast.Ident); ok && info.ObjectOf(id) != nil {
						elems[info.ObjectOf(id)] = &guardedElem{display, rootObject(info, sel), "while ranging"}
					}
				}
			case *ast.AssignStmt:
				checkElemStores(pass, n, elems, elemOf)
			}
			return true
		})
	}
	return nil
}

// guardedElem records that a value is an element of the guarded container
// field display, reached from the receiver recv, and how: the value
// variable of a range over the field, or a read of one element.
type guardedElem struct {
	display string
	recv    types.Object
	how     string
}

// rootObject is the object at the base of a selector/index chain.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	if root := rootIdent(e); root != nil {
		return info.ObjectOf(root)
	}
	return nil
}

// rootIdent returns the identifier at the base of a selector/index
// chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// checkElemStores flags storing an uncopied element of a guarded container
// — `dst[k] = row` while ranging it, `dst[i] = s.rows[k].row`, or the
// same through append or a local — into anything not rooted at the guarded
// struct itself. Assigning an element to a plain local is not yet a leak:
// the local is followed instead.
func checkElemStores(pass *Pass, as *ast.AssignStmt, elems map[types.Object]*guardedElem, elemOf func(ast.Expr) *guardedElem) {
	info := pass.TypesInfo
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		stored, appended := []ast.Expr{rhs}, false
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(info, call.Fun, "append") && !call.Ellipsis.IsValid() && len(call.Args) > 1 {
			stored, appended = call.Args[1:], true // append(dst, row) stores row; append(dst, row...) copies it
		}
		for _, e := range stored {
			el := elemOf(e)
			if el == nil {
				continue
			}
			lhs := ast.Unparen(as.Lhs[i])
			if id, ok := lhs.(*ast.Ident); ok && !appended {
				if obj := info.ObjectOf(id); obj != nil {
					elems[obj] = el
				}
				continue
			}
			if el.recv != nil && rootObject(info, lhs) == el.recv {
				continue // re-store inside the same guarded struct
			}
			if pass.exempt(e.Pos(), "aliasret-ok") {
				continue
			}
			name := types.ExprString(e)
			pass.Reportf(e.Pos(), "storing %q uncopied %s mutex-guarded field %s: every stored row still aliases guarded memory (the cluster.Snapshot shallow-copy bug) — copy the row first, e.g. append([]T(nil), %s...) (or justify with //pollux:aliasret-ok <reason>)", name, el.how, el.display, name)
		}
	}
}

// fieldOwner finds the named struct type that declares fieldVar,
// starting from the selector's receiver type and descending through
// embedded structs (field promotion).
func fieldOwner(info *types.Info, sel *ast.SelectorExpr, fieldVar *types.Var) *types.Named {
	t := info.TypeOf(sel.X)
	if t == nil {
		return nil
	}
	var search func(t types.Type, depth int) *types.Named
	search = func(t types.Type, depth int) *types.Named {
		if depth > 10 {
			return nil
		}
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			if ptr, ok := t.(*types.Pointer); ok {
				named, _ = ptr.Elem().(*types.Named)
			}
			if named == nil {
				return nil
			}
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == fieldVar {
				return named
			}
		}
		for i := 0; i < st.NumFields(); i++ {
			if !st.Field(i).Embedded() {
				continue
			}
			if owner := search(st.Field(i).Type(), depth+1); owner != nil {
				return owner
			}
		}
		return nil
	}
	return search(t, 0)
}
