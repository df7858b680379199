package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetMap flags `range` over a map in determinism-critical packages.
//
// Go randomizes map iteration order, so anything order-dependent inside
// such a loop — an rng draw, a float accumulation, an append consumed
// unsorted — perturbs fixed-seed traces (the PR 1 flaky-Table3 root
// cause was exactly an unsorted profile drain feeding agent refits).
// A loop survives unflagged only when its body is conservatively
// order-insensitive:
//
//   - keyed writes into another map (or slice) where the index mentions
//     the loop variables, with side-effect-free right-hand sides;
//   - commutative integer accumulation (n++, n += pure);
//   - delete(m, k);
//   - local declarations with side-effect-free initializers;
//   - if statements whose condition is side-effect-free and whose
//     branches are themselves order-insensitive;
//   - appends of loop-derived values into a slice that is sorted by the
//     statement(s) immediately following the loop (the sortedKeys idiom);
//
// or when the site carries //pollux:order-ok <reason>.
var DetMap = &Analyzer{
	Name:      "detmap",
	Doc:       "flags range over a map in determinism-critical packages unless the body is conservatively order-insensitive or justified //pollux:order-ok",
	Directive: "order-ok",
	Run:       runDetMap,
}

func runDetMap(pass *Pass) error {
	if !critical(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			list := stmtList(n)
			for i, s := range list {
				rs, ok := unlabel(s).(*ast.RangeStmt)
				if !ok || !isMapRange(pass.TypesInfo, rs) {
					continue
				}
				d := &detmapLoop{pass: pass, rs: rs}
				// Clean loops pass before the directive is consulted, so an
				// //pollux:order-ok over a loop that no longer needs it reads
				// as unused and the stale-directive check reports it.
				if d.orderInsensitive(rs.Body.List) && d.appendsSorted(list[i+1:]) {
					continue
				}
				if pass.exempt(rs.Pos(), "order-ok") {
					continue
				}
				pass.Reportf(rs.Pos(), "range over map in determinism-critical package %s: iteration order is random; sort a key slice first, restructure the body to be order-insensitive, or justify with //pollux:order-ok <reason>", pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}

// stmtList returns n's statement list if n is a statement-list owner.
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

func unlabel(s ast.Stmt) ast.Stmt {
	for {
		l, ok := s.(*ast.LabeledStmt)
		if !ok {
			return s
		}
		s = l.Stmt
	}
}

func isMapRange(info *types.Info, rs *ast.RangeStmt) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := under(t).(*types.Map)
	return ok
}

// detmapLoop carries the per-loop state of the order-insensitivity scan.
type detmapLoop struct {
	pass *Pass
	rs   *ast.RangeStmt
	// appendTargets are slice variables the body appends loop-derived
	// values into; the loop is order-insensitive only if each is sorted
	// immediately after the loop.
	appendTargets []*types.Var
}

// orderInsensitive reports whether every statement in list is
// conservatively order-insensitive (see DetMap doc).
func (d *detmapLoop) orderInsensitive(list []ast.Stmt) bool {
	for _, s := range list {
		if !d.stmtOK(unlabel(s)) {
			return false
		}
	}
	return true
}

func (d *detmapLoop) stmtOK(s ast.Stmt) bool {
	info := d.pass.TypesInfo
	switch s := s.(type) {
	case *ast.AssignStmt:
		return d.assignOK(s)
	case *ast.IncDecStmt:
		return d.keyedOrCountTarget(s.X, token.ADD_ASSIGN)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				return false
			}
			for _, v := range vs.Values {
				if !d.pureExpr(v) {
					return false
				}
			}
		}
		return true
	case *ast.ExprStmt:
		// delete(otherMap, k) removes keyed entries: commutative.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return true
				}
			}
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !d.stmtOK(s.Init) {
			return false
		}
		if !d.pureExpr(s.Cond) {
			return false
		}
		if !d.orderInsensitive(s.Body.List) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return d.orderInsensitive(e.List)
		case *ast.IfStmt:
			return d.stmtOK(e)
		}
		return false
	case *ast.BlockStmt:
		return d.orderInsensitive(s.List)
	case *ast.RangeStmt:
		// A nested loop over a side-effect-free collection is as
		// order-insensitive as its body (the inner loop gets its own
		// independent detmap check if it ranges a map).
		return d.pureExpr(s.X) && d.orderInsensitive(s.Body.List)
	case *ast.BranchStmt:
		// continue skips an iteration, fine; break/goto make which
		// element terminates the loop order-dependent.
		return s.Tok == token.CONTINUE
	case *ast.EmptyStmt:
		return true
	}
	return false
}

func (d *detmapLoop) assignOK(s *ast.AssignStmt) bool {
	// s = append(s, pure...) is handled first: allowed, but only if s is
	// sorted right after the loop (checked by appendsSorted).
	if v, ok := d.appendSelf(s); ok {
		d.appendTargets = append(d.appendTargets, v)
		return true
	}
	for _, rhs := range s.Rhs {
		if !d.pureExpr(rhs) {
			return false
		}
	}
	for _, lhs := range s.Lhs {
		if !d.lhsOK(lhs, s.Tok) {
			return false
		}
	}
	return true
}

// appendSelf matches `x = append(x, args...)` with pure args and x an
// identifier, returning x's object.
func (d *detmapLoop) appendSelf(s *ast.AssignStmt) (*types.Var, bool) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 || s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		return nil, false
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltin(d.pass.TypesInfo, call.Fun, "append") {
		return nil, false
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok || arg0.Name != lhs.Name {
		return nil, false
	}
	for _, a := range call.Args[1:] {
		if !d.pureExpr(a) {
			return nil, false
		}
	}
	v, _ := d.pass.TypesInfo.ObjectOf(lhs).(*types.Var)
	if v == nil {
		return nil, false
	}
	return v, true
}

func (d *detmapLoop) lhsOK(lhs ast.Expr, tok token.Token) bool {
	info := d.pass.TypesInfo
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return true
		}
		if tok == token.DEFINE {
			return true // fresh local per iteration
		}
		// Accumulating into a shared variable is commutative only for
		// integer +=/-=/bitwise ops; float accumulation and last-writer
		// `=` depend on iteration order.
		return accumTok(tok) && isInteger(info.TypeOf(lhs))
	case *ast.IndexExpr:
		return d.keyedOrCountTarget(lhs, tok)
	case *ast.SelectorExpr:
		// Field write through a chain rooted at a loop variable
		// (ts.Submitted = n where ts is the loop value): each iteration
		// owns its target.
		root := rootIdent(lhs)
		if root == nil || !d.isLoopVar(root) {
			return false
		}
		return tok == token.ASSIGN || accumTok(tok) && isInteger(info.TypeOf(lhs))
	}
	return false
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

// keyedOrCountTarget accepts writes through an index expression (into a
// map or slice) whose index mentions the loop variables — each iteration
// then touches its own element, so order cannot matter — and integer
// counter updates. tok distinguishes plain keyed writes from arithmetic
// accumulation: `m[f(k)] += x` with a float element is order-sensitive
// unless the index is loop-keyed (each key visited once).
func (d *detmapLoop) keyedOrCountTarget(x ast.Expr, tok token.Token) bool {
	info := d.pass.TypesInfo
	ix, ok := x.(*ast.IndexExpr)
	if !ok {
		// IncDecStmt on a plain ident: integer counter.
		id, ok := x.(*ast.Ident)
		return ok && isInteger(info.TypeOf(id))
	}
	if !d.pureExpr(ix.X) || !d.pureExpr(ix.Index) {
		return false
	}
	switch t := under(info.TypeOf(ix.X)).(type) {
	case *types.Map, *types.Slice:
		_ = t
	case *types.Pointer: // *[N]T
		if _, ok := t.Elem().Underlying().(*types.Array); !ok {
			return false
		}
	case *types.Array:
	default:
		return false
	}
	if tok == token.ASSIGN {
		// Plain keyed write: require the key to mention a loop variable,
		// otherwise every iteration races last-writer-wins on one slot.
		return d.mentionsLoopVar(ix.Index)
	}
	if !accumTok(tok) {
		return false
	}
	// Arithmetic accumulation: integers commute; floats only when each
	// element is touched once (index mentions the loop key).
	return isInteger(info.TypeOf(x)) || d.mentionsLoopVar(ix.Index)
}

func accumTok(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}

// loopObjs returns the loop's key and value variable objects.
func (d *detmapLoop) loopObjs() map[types.Object]bool {
	objs := map[types.Object]bool{}
	for _, v := range []ast.Expr{d.rs.Key, d.rs.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := d.pass.TypesInfo.ObjectOf(id); obj != nil {
				objs[obj] = true
			}
		}
	}
	return objs
}

// isLoopVar reports whether id is the loop's key or value variable.
func (d *detmapLoop) isLoopVar(id *ast.Ident) bool {
	return d.loopObjs()[d.pass.TypesInfo.ObjectOf(id)]
}

// mentionsLoopVar reports whether e references the loop's key or value
// variable (directly, or through a selector/index off one).
func (d *detmapLoop) mentionsLoopVar(e ast.Expr) bool {
	objs := d.loopObjs()
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[d.pass.TypesInfo.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

// pureExpr reports whether e is side-effect free: no calls except
// builtins (len, cap, min, max, abs variants, append with pure args) and
// type conversions. An rng draw, a method with internal state, or a
// channel receive inside a map loop is exactly the order-dependence this
// analyzer exists to catch.
func (d *detmapLoop) pureExpr(e ast.Expr) bool {
	info := d.pass.TypesInfo
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		if !pure {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion: args checked by the walk
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, ok := info.Uses[id].(*types.Builtin); ok {
					switch id.Name {
					case "len", "cap", "min", "max", "append", "make", "real", "imag", "complex":
						return true
					}
				}
			}
			pure = false
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW { // channel receive
				pure = false
				return false
			}
		case *ast.FuncLit:
			// Defining a closure draws nothing; calling it would be a
			// CallExpr and is rejected above. Don't descend.
			return false
		}
		return true
	})
	return pure
}

// appendsSorted reports whether every slice the loop body appended into
// is the argument of a sort.* / slices.* call in the statements
// immediately following the loop.
func (d *detmapLoop) appendsSorted(following []ast.Stmt) bool {
	if len(d.appendTargets) == 0 {
		return true
	}
	sorted := map[*types.Var]bool{}
	for _, s := range following {
		call := sortCall(d.pass.TypesInfo, unlabel(s))
		if call == nil {
			break
		}
		for _, a := range call.Args {
			ast.Inspect(a, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if v, ok := d.pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
						sorted[v] = true
					}
				}
				return true
			})
		}
	}
	for _, v := range d.appendTargets {
		if !sorted[v] {
			return false
		}
	}
	return true
}

// sortCall matches `sort.Xxx(...)` / `slices.SortXxx(...)` expression
// statements (assignment form included, for slices.Sorted etc.).
func sortCall(info *types.Info, s ast.Stmt) *ast.CallExpr {
	var e ast.Expr
	switch s := s.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return nil
		}
		e = s.Rhs[0]
	default:
		return nil
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	pkg, name, ok := funcPkg(info, call.Fun)
	if !ok {
		return nil
	}
	if pkg == "sort" || pkg == "slices" && strings.HasPrefix(name, "Sort") {
		return call
	}
	return nil
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func isInteger(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := under(t).(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
