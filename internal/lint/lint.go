// Package lint holds the pollux-vet analyzers: mechanical enforcement of
// the determinism, clock, and option-pattern invariants the reproduction's
// parity guarantees rest on (bit-identical parallel-vs-serial GA scoring,
// bit-reproducible cluster.Replay, exact closed-form exhibit baselines).
//
// The analyzers mirror golang.org/x/tools/go/analysis in miniature — the
// container this repo builds in has no module proxy access, so the
// framework (Analyzer, Pass, the vet driver protocol in
// internal/lint/driver) is reimplemented on the standard library alone.
//
// Three analyzers are package-local:
//
//   - detmap: range over a map in a determinism-critical package must be
//     conservatively order-insensitive or justified //pollux:order-ok.
//   - zerodefault: a `if o.X == 0 { o.X = d }` defaults() rewrite of a
//     numeric option field needs a negative-sentinel or Disable* escape.
//   - floateq: ==/!= on floats, except exact-representable constants and
//     the x != x NaN idiom.
//
// Three are interprocedural: they exchange serialized facts across
// package boundaries through the .vetx files of the unitchecker protocol
// (see facts.go), so a violation hidden behind a helper in another
// package is still found:
//
//   - clocktaint: wall-clock time and global math/rand are forbidden in
//     determinism-critical packages, used directly or through a function
//     that transitively reaches time.Now/Sleep/... or a global draw — in
//     any package, at any depth; time flows through eventsim.Clock,
//     randomness through a seeded *rand.Rand. A testing/quick config
//     without a seeded Rand is flagged in any package.
//   - rngescape: a *rand.Rand must not cross a goroutine boundary — not
//     captured by a `go` closure, not passed into par.For-style helpers,
//     not passed to a function whose parameter transitively reaches one.
//   - aliasret: fields of map/slice/pointer type in a mutex-guarded
//     struct are facts; returning such a field, or storing one of its
//     elements outside the struct (while ranging it, or after a lookup
//     and any field steps), without a copy leaks guarded state past the
//     lock.
//
// A finding is suppressed by a justification comment on the flagged line
// or the line above:
//
//	//pollux:<directive> <reason>
//
// where <directive> is the analyzer's directive name (order-ok for
// detmap, otherwise <name>-ok) and <reason> is mandatory prose recorded
// for the next reader. A directive with no reason is itself a finding,
// and so is a stale directive that no longer suppresses anything (the
// driver checks directive use across the whole analyzer suite).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// An Analyzer describes one invariant check. The shape matches
// x/tools/go/analysis.Analyzer so the checks port mechanically if the
// dependency ever becomes available.
type Analyzer struct {
	Name string // command-line name, e.g. "detmap"
	Doc  string // one-paragraph description for -flags / help output
	// Directive is the //pollux:<directive> comment that suppresses this
	// analyzer's findings at a site ("" = no suppression supported).
	Directive string
	Run       func(*Pass) error
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass carries one typechecked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// Facts is the unit's cross-package fact store (see facts.go). The
	// driver populates it with every dependency's decoded .vetx table;
	// nil means a local-only store is created on first use.
	Facts *Facts
	// Dirs is the unit's //pollux: directive registry, shared across the
	// analyzers run over the unit so StaleDirectives sees every use; nil
	// means the pass scans its own files on first use.
	Dirs *Directives
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		DetMap,
		ZeroDefault,
		FloatEq,
		ClockTaint,
		RngEscape,
		AliasRet,
	}
}

// criticalPkgs are the determinism-critical packages: any range over a
// map, wall-clock read, or unseeded randomness here can silently perturb
// fixed-seed traces and the checked-in exhibit baselines.
var criticalPkgs = map[string]bool{
	"sim":         true,
	"sched":       true,
	"ga":          true,
	"agent":       true,
	"workload":    true,
	"cluster":     true,
	"admit":       true,
	"runtime":     true,
	"eventsim":    true,
	"experiments": true,
}

// critical reports whether pkgPath is determinism-critical. Matching is
// by final path element so test fixtures (package path "sim") and the
// real tree (package path "repro/internal/sim") resolve identically.
func critical(pkgPath string) bool {
	return criticalPkgs[path.Base(pkgPath)]
}

// isTestFile reports whether pos is inside a _test.go file.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}

// funcPkg resolves a call or value use of a package-level function and
// returns (package path, function name). ok is false for anything else
// (methods, locals, builtins).
func funcPkg(info *types.Info, e ast.Expr) (pkgPath, name string, ok bool) {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.SelectorExpr:
		id = e.Sel
	case *ast.Ident:
		id = e
	default:
		return "", "", false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// under is t.Underlying(), except that a type parameter whose type set
// has a single underlying type (M ~map[K]V, T ~float64) resolves to that
// type instead of to its constraint interface.
func under(t types.Type) types.Type {
	tp, ok := t.(*types.TypeParam)
	if !ok {
		return t.Underlying()
	}
	var core types.Type
	iface := tp.Constraint().Underlying().(*types.Interface)
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		if u, ok := iface.EmbeddedType(i).(*types.Union); ok {
			if u.Len() != 1 || core != nil {
				return t.Underlying()
			}
			core = u.Term(0).Type().Underlying()
		}
	}
	if core == nil {
		return t.Underlying()
	}
	return core
}

// isRandRand reports whether t is *math/rand.Rand (or math/rand/v2).
func isRandRand(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != "Rand" {
		return false
	}
	p := obj.Pkg().Path()
	return p == "math/rand" || p == "math/rand/v2"
}
