package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// ClockTaint forbids wall-clock time and global math/rand state in
// determinism-critical packages, directly or through any chain of
// helpers: a function fact "transitively reaches the wall clock or
// global math/rand", propagated bottom-up through the import DAG via
// .vetx facts.
//
// Simulated time flows through eventsim.Clock; randomness flows through
// a seeded *rand.Rand handed down explicitly. A stray time.Now in a
// scheduling round breaks bit-reproducible cluster.Replay and fixed-seed
// traces in ways that only surface as flaky baselines much later — and
// so does a one-line helper in a non-critical package —
//
//	package metrics
//	func Stamp() int64 { return time.Now().Unix() }
//
// — called from internal/sim. ClockTaint flags the direct time.Now, marks
// Stamp tainted when metrics is analyzed, serializes the fact, and flags
// the sim call site when sim (analyzed later: the unitchecker protocol
// visits dependencies first) resolves Stamp through export data. Taint
// composes through any number of helper hops and through methods on
// named types; it does not flow through interface calls (the concrete
// callee is unknowable modularly) or function values — eventsim.Clock
// is exactly such an interface, which is also why the sanctioned Wall
// clock never leaks taint into its callers.
//
// Roots are the wall-reading time functions and package-level math/rand
// draws (seeded-rng constructors and methods on an owned *rand.Rand stay
// clean). eventsim's clock.go, the Wall clock implementation, is exempt.
// A site justified with //pollux:clocktaint-ok neither propagates taint
// nor reports.
//
// In any package, test files included, a testing/quick config that
// leaves Rand nil is flagged too: quick then seeds from time.Now, so a
// failing case cannot be replayed.
var ClockTaint = &Analyzer{
	Name:      "clocktaint",
	Doc:       "flags time.Now/Sleep/... and global math/rand in determinism-critical packages, directly or through functions that transitively reach them in any package (cross-package facts), and testing/quick configs without a seeded Rand",
	Directive: "clocktaint-ok",
	Run:       runClockTaint,
}

// ClockTaintFact marks a function that transitively reaches a wall-clock
// or global-rand root. Path is the call chain from the function's first
// tainted callee down to the root, e.g. ["clockutil.NowUnix", "time.Now"].
type ClockTaintFact struct {
	Path []string
}

// AFact marks ClockTaintFact as a fact type.
func (*ClockTaintFact) AFact() {}

// wallClockFuncs are the package "time" functions that read or pace the
// wall clock. time.Unix/Date etc. (pure constructors) stay allowed.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// clockRoot returns the display name of a wall-clock/global-rand root
// function, or "" if fn is not a root.
func clockRoot(fn *types.Func) string {
	// Exported package-level functions only: unexported stdlib internals
	// (rand.newSource and friends) are reachable only from inside their
	// own package and must not read as roots if stdlib source is ever
	// analyzed.
	if fn.Pkg() == nil || !fn.Exported() || fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	switch pkg := fn.Pkg().Path(); {
	case pkg == "time" && wallClockFuncs[fn.Name()]:
		return "time." + fn.Name()
	case (pkg == "math/rand" || pkg == "math/rand/v2") && !strings.HasPrefix(fn.Name(), "New"):
		return "rand." + fn.Name()
	}
	return ""
}

// clockAllowed reports whether f is eventsim's clock.go, the one file
// where wall time may be touched.
func clockAllowed(pass *Pass, f *ast.File) bool {
	fname := pass.Fset.File(f.Pos()).Name()
	return filepath.Base(fname) == "clock.go" && strings.HasSuffix(pass.Pkg.Path(), "eventsim")
}

// funcDisplay renders fn for diagnostics: pkg.Func or pkg.(Recv).Method.
func funcDisplay(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := namedOf(recv.Type()); named != nil {
			return fmt.Sprintf("%s(%s).%s", pkg, named.Obj().Name(), fn.Name())
		}
	}
	return pkg + fn.Name()
}

func runClockTaint(pass *Pass) error {
	tainted := map[*types.Func]*ClockTaintFact{}
	// taintOf returns the chain from fn down to a root: [root] for a root
	// itself, local fixpoint state or an exported/imported fact otherwise
	// — one lookup path for callees in any package.
	taintOf := func(fn *types.Func) []string {
		if root := clockRoot(fn); root != "" {
			return []string{root}
		}
		if f, ok := tainted[fn]; ok {
			return append([]string{funcDisplay(fn)}, f.Path...)
		}
		var fact ClockTaintFact
		if pass.FuncFact(fn, &fact) {
			return append([]string{funcDisplay(fn)}, fact.Path...)
		}
		return nil
	}
	// firstTaint scans body in position order for the first use of a root
	// or an already-tainted function that is not justified away.
	firstTaint := func(body *ast.BlockStmt) *ClockTaintFact {
		var found *ClockTaintFact
		ast.Inspect(body, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
					if chain := taintOf(fn); chain != nil && !pass.exempt(id.Pos(), "clocktaint-ok") {
						found = &ClockTaintFact{Path: chain}
					}
				}
			}
			return found == nil
		})
		return found
	}
	// The first tainted use in source order names a function's chain.
	fixpoint(pass.funcDecls(func(f *ast.File) bool { return clockAllowed(pass, f) }), func(fd funcDecl) bool {
		fact := firstTaint(fd.decl.Body)
		if fact != nil {
			tainted[fd.obj] = fact
			pass.ExportFuncFact(fd.obj, fact)
		}
		return fact != nil
	})

	crit := critical(pass.Pkg.Path())
	for _, f := range pass.Files {
		timeline := crit && !pass.isTestFile(f.Pos()) && !clockAllowed(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit: // a testing/quick config without Rand
				if types.TypeString(pass.TypesInfo.TypeOf(n), nil) != "testing/quick.Config" {
					return true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok && types.ExprString(kv.Key) == "Rand" {
						return true
					}
				}
				if !pass.exempt(n.Pos(), "clocktaint-ok") {
					pass.Reportf(n.Pos(), "quick.Config without Rand: testing/quick seeds a nil Rand from time.Now, so a failure cannot be replayed — set Rand to a seeded *rand.Rand, e.g. testutil.QuickConfig (or justify with //pollux:clocktaint-ok <reason>)")
				}
			case *ast.CallExpr: // a nil config passed to quick.Check/CheckEqual
				pkg, name, ok := funcPkg(pass.TypesInfo, n.Fun)
				if ok && pkg == "testing/quick" && (name == "Check" || name == "CheckEqual") && len(n.Args) > 0 {
					if last := n.Args[len(n.Args)-1]; pass.TypesInfo.Types[last].IsNil() && !pass.exempt(last.Pos(), "clocktaint-ok") {
						pass.Reportf(last.Pos(), "nil config passed to quick.%s: testing/quick seeds a nil Rand from time.Now, so a failure cannot be replayed — pass a config with a seeded Rand, e.g. testutil.QuickConfig (or justify with //pollux:clocktaint-ok <reason>)", name)
					}
				}
			case *ast.Ident:
				fn, ok := pass.TypesInfo.Uses[n].(*types.Func)
				if !timeline || !ok {
					return true
				}
				chain := taintOf(fn)
				if chain == nil || pass.exempt(n.Pos(), "clocktaint-ok") {
					return true
				}
				root := chain[len(chain)-1]
				switch {
				case len(chain) > 1:
					pass.Reportf(n.Pos(), "%s transitively reaches %s in determinism-critical package %s (%s): route time through eventsim.Clock and randomness through a seeded *rand.Rand (or justify with //pollux:clocktaint-ok <reason>)", funcDisplay(fn), root, pass.Pkg.Name(), strings.Join(chain, " → "))
				case strings.HasPrefix(root, "time."):
					pass.Reportf(n.Pos(), "%s in determinism-critical package %s: wall-clock time must flow through eventsim.Clock (or justify with //pollux:clocktaint-ok <reason>)", root, pass.Pkg.Name())
				default:
					pass.Reportf(n.Pos(), "global %s in determinism-critical package %s: draw from a seeded *rand.Rand instead (or justify with //pollux:clocktaint-ok <reason>)", root, pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil
}
