package lint

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// RngEscape flags a *rand.Rand crossing a goroutine boundary, at the
// spawn site or through any chain of helpers.
//
// The repo's bit-identical parallel-vs-serial guarantee rests on one
// rule: the rng stays on the caller's goroutine; workers receive data,
// never the rng. *rand.Rand is both unsynchronized (a data race) and
// order-sensitive (even a synchronized share would make draw order
// depend on scheduling). Flagged at a spawn site — a `go` statement, a
// call into an internal par package (par.For worker pools) or a method
// named Go (errgroup shape) — in every file of every package:
//
//   - a *rand.Rand declared outside a func literal handed to the spawn
//     but referenced inside it (capture);
//   - a *rand.Rand passed as a direct argument of the spawn.
//
// A helper that does the spawning on the caller's behalf —
//
//	package rngutil
//	func Spawn(rng *rand.Rand, out []float64) { go func() { out[0] = rng.Float64() }() }
//
// — hides the boundary from every caller, so RngEscape also records a
// fact on each *rand.Rand parameter that (transitively) reaches a spawn
// site, and flags non-test call sites passing an rng into such a
// parameter: a helper hop does not change whose goroutine draws.
//
// Per-goroutine rngs derived inside the closure (rand.New(rand.NewSource
// (seed+i))) are the sanctioned pattern and pass clean, and so does
// retaining an rng in a struct (the owned-rng constructor pattern).
// Justify an intentional hand-off with //pollux:rngescape-ok.
var RngEscape = &Analyzer{
	Name:      "rngescape",
	Doc:       "flags a *rand.Rand captured by a go-statement closure, passed into goroutine-spawning helpers (par.For, worker pools), or passed to a function whose parameter transitively reaches another goroutine (cross-package facts); derive per-goroutine rngs from seeds instead",
	Directive: "rngescape-ok",
	Run:       runRngEscape,
}

// RngEscapeFact marks a *rand.Rand parameter that the function
// (transitively) hands to a goroutine it spawns. Path is the escape
// chain, innermost description last, e.g.
// ["rngutil.Forward2", "rngutil.Spawn", "a closure spawned via a go statement"].
type RngEscapeFact struct {
	Path []string
}

// AFact marks RngEscapeFact as a fact type.
func (*RngEscapeFact) AFact() {}

// rngParam is one *rand.Rand parameter under analysis.
type rngParam struct {
	fn    *types.Func
	index int
	obj   *types.Var
	body  *ast.BlockStmt
}

// walkCalls visits every call in root once: a go statement's call or a
// spawn-helper call through spawn (with the spawner's name), any other
// call through plain.
func walkCalls(info *types.Info, root ast.Node, spawn func(*ast.CallExpr, string), plain func(*ast.CallExpr)) {
	var goCall *ast.CallExpr
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			goCall = n.Call
			spawn(n.Call, "go statement")
		case *ast.CallExpr:
			if n == goCall {
				return true
			}
			if spawner, ok := spawnHelper(info, n); ok {
				spawn(n, spawner)
			} else {
				plain(n)
			}
		}
		return true
	})
}

// spawnHelper reports whether call invokes a goroutine-spawning helper
// and names it. Helpers: any function in a package whose final path
// element is "par" (the repo's bounded parallel-for), and any method
// named Go (the errgroup shape).
func spawnHelper(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkg, name, ok := funcPkg(info, sel); ok && path.Base(pkg) == "par" {
		return "par." + name, true
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Name() == "Go" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "(" + sig.Recv().Type().String() + ").Go", true
		}
	}
	return "", false
}

// spawnEscapes calls escape for each *rand.Rand reaching the goroutine
// that call spawns: a direct argument, or (captured) an identifier inside
// a func-literal argument or the called literal that names a variable
// declared outside the literal.
func spawnEscapes(info *types.Info, call *ast.CallExpr, escape func(e ast.Expr, captured bool)) {
	captures := func(fl *ast.FuncLit) {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && isRandRand(v.Type()) && (v.Pos() < fl.Pos() || v.Pos() > fl.End()) {
					escape(id, true)
				}
			}
			return true
		})
	}
	for _, arg := range call.Args {
		if fl, ok := arg.(*ast.FuncLit); ok {
			captures(fl)
		} else if isRandRand(info.TypeOf(arg)) {
			escape(arg, false)
		}
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		captures(fl)
	}
}

func runRngEscape(pass *Pass) error {
	info := pass.TypesInfo

	var params []*rngParam
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				if isRandRand(sig.Params().At(i).Type()) {
					params = append(params, &rngParam{fn: obj, index: i, obj: sig.Params().At(i), body: fd.Body})
				}
			}
		}
	}

	local := map[*types.Var]*RngEscapeFact{}
	// calleeFact resolves the fact on callee's i'th parameter: local
	// fixpoint state first, then exported/imported facts.
	calleeFact := func(callee *types.Func, i int) *RngEscapeFact {
		sig, ok := callee.Type().(*types.Signature)
		if !ok || sig.Params().Len() == 0 {
			return nil
		}
		if i >= sig.Params().Len() { // variadic tail
			i = sig.Params().Len() - 1
		}
		if f, ok := local[sig.Params().At(i)]; ok {
			return f
		}
		var fact RngEscapeFact
		if pass.ParamFact(callee, i, &fact) {
			return &fact
		}
		return nil
	}
	// escapingArgs calls fn for each *rand.Rand argument of call whose
	// parameter escapes to a goroutine and is not justified at the site.
	escapingArgs := func(call *ast.CallExpr, fn func(arg ast.Expr, callee *types.Func, fact *RngEscapeFact)) {
		callee := calledFunc(info, call)
		if callee == nil {
			return
		}
		for i, arg := range call.Args {
			if !isRandRand(info.TypeOf(arg)) {
				continue
			}
			if fact := calleeFact(callee, i); fact != nil && !pass.exempt(arg.Pos(), "rngescape-ok") {
				fn(arg, callee, fact)
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for _, p := range params {
			if local[p.obj] != nil {
				continue
			}
			isP := func(e ast.Expr) bool {
				id, ok := ast.Unparen(e).(*ast.Ident)
				return ok && info.Uses[id] == p.obj
			}
			var found []string
			walkCalls(info, p.body, func(call *ast.CallExpr, spawner string) {
				if spawner == "go statement" {
					spawner = "a go statement"
				}
				spawnEscapes(info, call, func(e ast.Expr, captured bool) {
					if found == nil && isP(e) && !pass.exempt(e.Pos(), "rngescape-ok") {
						found = []string{spawner}
						if captured {
							found[0] = "a closure spawned via " + spawner
						}
					}
				})
			}, func(call *ast.CallExpr) {
				escapingArgs(call, func(arg ast.Expr, callee *types.Func, fact *RngEscapeFact) {
					if found == nil && isP(arg) {
						found = append([]string{funcDisplay(callee)}, fact.Path...)
					}
				})
			})
			if found != nil {
				local[p.obj] = &RngEscapeFact{Path: found}
				pass.ExportParamFact(p.fn, p.index, local[p.obj])
				changed = true
			}
		}
	}

	for _, f := range pass.Files {
		test := pass.isTestFile(f.Pos())
		walkCalls(info, f, func(call *ast.CallExpr, spawner string) {
			spawnEscapes(info, call, func(e ast.Expr, captured bool) {
				switch {
				case pass.exempt(e.Pos(), "rngescape-ok"):
				case captured:
					pass.Reportf(e.Pos(), "*rand.Rand %q captured by a closure spawned via %s: draw order becomes schedule-dependent — draw on the caller's goroutine or derive a goroutine-local rng from a seed (or justify with //pollux:rngescape-ok <reason>)", e.(*ast.Ident).Name, spawner)
				default:
					pass.Reportf(e.Pos(), "*rand.Rand passed into %s: the rng must stay on the caller's goroutine — pass a seed and derive a goroutine-local rng (or justify with //pollux:rngescape-ok <reason>)", spawner)
				}
			})
		}, func(call *ast.CallExpr) {
			if test {
				return
			}
			escapingArgs(call, func(arg ast.Expr, callee *types.Func, fact *RngEscapeFact) {
				chain := strings.Join(append([]string{funcDisplay(callee)}, fact.Path...), " → ")
				pass.Reportf(arg.Pos(), "*rand.Rand passed to %s, which hands it to another goroutine (%s): draw order becomes schedule-dependent — draw on the caller's goroutine or pass a seed (or justify with //pollux:rngescape-ok <reason>)", funcDisplay(callee), chain)
			})
		})
	}
	return nil
}

// calledFunc resolves the static callee of a call, method or function.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
