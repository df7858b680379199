package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between floating-point expressions.
//
// Two computed floats that "should" be equal rarely are — and worse for
// this repo, whether they are can depend on evaluation order, so a float
// equality test can turn an invisible last-bit drift into a behavioral
// fork. Allowed without annotation:
//
//   - comparison against a constant whose value is exactly representable
//     in the operand's float type (x == 0, x == 0.5, x == -1: sentinel
//     and exact-gate checks are deliberate);
//   - the NaN idiom x != x / x == x (self-comparison);
//   - bit-pattern comparison via math.Float64bits lands on uint64 and is
//     never flagged — that is the sanctioned exact-equality idiom.
//
// Anything else needs a tolerance, a bits comparison, or a
// //pollux:floateq-ok justification.
var FloatEq = &Analyzer{
	Name:      "floateq",
	Doc:       "flags ==/!= on float expressions except exact-representable constants and the x != x NaN idiom; compare math.Float64bits or use a tolerance",
	Directive: "floateq-ok",
	Run:       runFloatEq,
}

func runFloatEq(pass *Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || be.Op != token.EQL && be.Op != token.NEQ {
				return true
			}
			if !isFloat(info.TypeOf(be.X)) && !isFloat(info.TypeOf(be.Y)) {
				return true
			}
			// Constant-folded comparisons (two untyped constants) are
			// compile-time facts, not runtime hazards.
			if tv, ok := info.Types[be]; ok && tv.Value != nil {
				return true
			}
			if exactConst(info, be.X) || exactConst(info, be.Y) {
				return true
			}
			if selfCompare(be) {
				return true // x != x: the NaN check
			}
			if pass.exempt(be.Pos(), "floateq-ok") {
				return true
			}
			pass.Reportf(be.Pos(), "float %s comparison: computed floats differ in last bits and fork behavior silently — compare math.Float64bits for exact identity, use a tolerance, or justify with //pollux:floateq-ok <reason>", be.Op)
			return true
		})
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := under(t).(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exactConst reports whether e is a compile-time constant whose source
// literals are all exactly representable in float64 (x == 0, x == 0.5,
// x == -1, x == 4*3600). The typechecker's recorded constant value is
// already rounded, so exactness is judged from the literal text: x ==
// 0.1 is flagged — the author believes a computed x can land exactly on
// a value that does not exist in binary floating point.
func exactConst(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	exact := true
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.FLOAT && lit.Kind != token.INT {
			return true
		}
		v := constant.MakeFromLiteral(lit.Value, lit.Kind, 0)
		if v.Kind() == constant.Unknown {
			exact = false
			return false
		}
		if _, ok := constant.Float64Val(constant.ToFloat(v)); !ok {
			exact = false
		}
		return exact
	})
	return exact
}

// selfCompare matches x == x / x != x where x is the same identifier or
// selector chain on both sides.
func selfCompare(be *ast.BinaryExpr) bool {
	return sameRef(be.X, be.Y)
}

func sameRef(a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch a := a.(type) {
	case *ast.Ident:
		b, ok := b.(*ast.Ident)
		return ok && a.Name == b.Name
	case *ast.SelectorExpr:
		bs, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == bs.Sel.Name && sameRef(a.X, bs.X)
	case *ast.IndexExpr:
		bi, ok := b.(*ast.IndexExpr)
		return ok && sameRef(a.X, bi.X) && sameRef(a.Index, bi.Index)
	}
	return false
}
