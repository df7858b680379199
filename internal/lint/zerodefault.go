package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// ZeroDefault flags the zero-value-default trap in option structs.
//
// A defaults() method that rewrites a numeric field's zero value,
//
//	if o.X == 0 { o.X = d }
//
// makes an explicit X: 0 indistinguishable from "unset": the caller
// cannot ask for zero. PR 2 hit this twice, on two sched.PolluxOptions
// fields no caller went on to set, which are constants now. The sites that
// still rewrite a zero, each with its escape, are
// sched.PolluxOptions.FullEvery (negative: never force a full round),
// admit.Options.BucketCapacity, BucketRefill and DefaultQuota (negative:
// explicit zero, resolved in admit.New) and cluster.Trainer.Compression
// (its DisableCompression twin). The rewrite is allowed only when the
// function also provides an escape for explicit zero, detected as either
//
//   - a negative-sentinel branch on the same field (o.X < 0 or o.X <= 0
//     handled somewhere in the function: "negative means explicit zero"),
//   - a Disable*/Enable* bool field consulted in the same if/else chain
//     or conjoined into the condition (if o.DisableX { ... } else if
//     o.X == 0 { ... }),
//
// or a //pollux:zerodefault-ok justification.
var ZeroDefault = &Analyzer{
	Name:      "zerodefault",
	Doc:       "flags `if o.X == 0 { o.X = d }` numeric-field rewrites in defaults()-style methods that lack a negative-sentinel or Disable* escape for explicit zero",
	Directive: "zerodefault-ok",
	Run:       runZeroDefault,
}

func runZeroDefault(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isDefaultsFunc(fd.Name.Name) {
				continue
			}
			checkDefaultsFunc(pass, fd)
		}
	}
	return nil
}

func isDefaultsFunc(name string) bool {
	l := strings.ToLower(name)
	return strings.HasPrefix(l, "default") || strings.HasPrefix(l, "applydefault")
}

func checkDefaultsFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Fields with a negative-sentinel comparison anywhere in the
	// function: `o.X < 0`, `o.X <= 0`, or comparison against a negative
	// constant.
	negSentinel := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		var fieldSide, otherSide ast.Expr
		switch be.Op {
		case token.LSS, token.LEQ: // o.X < 0
			fieldSide, otherSide = be.X, be.Y
		case token.GTR, token.GEQ: // 0 > o.X
			fieldSide, otherSide = be.Y, be.X
		default:
			return true
		}
		v := fieldVar(info, fieldSide)
		if v == nil {
			return true
		}
		if c := constValue(info, otherSide); c != nil && nonPositive(c) {
			negSentinel[v] = true
		}
		return true
	})

	// Walk if/else chains. For each chain, note whether any condition in
	// it consults a Disable*/Enable* field, then flag `== 0` rewrites of
	// numeric fields with no escape.
	var walk func(s ast.Stmt, chainHasToggle bool)
	checkChain := func(s *ast.IfStmt) {
		hasToggle := false
		for c := s; ; {
			if condHasToggle(info, c.Cond) {
				hasToggle = true
			}
			next, ok := c.Else.(*ast.IfStmt)
			if !ok {
				break
			}
			c = next
		}
		for c := s; ; {
			checkZeroRewrite(pass, c, hasToggle, negSentinel)
			next, ok := c.Else.(*ast.IfStmt)
			if !ok {
				if blk, ok := c.Else.(*ast.BlockStmt); ok {
					for _, inner := range blk.List {
						walk(inner, false)
					}
				}
				break
			}
			c = next
		}
	}
	walk = func(s ast.Stmt, _ bool) {
		switch s := unlabel(s).(type) {
		case *ast.IfStmt:
			checkChain(s)
			// Bodies of each branch may contain nested chains.
			for c := s; ; {
				for _, inner := range c.Body.List {
					walk(inner, false)
				}
				next, ok := c.Else.(*ast.IfStmt)
				if !ok {
					break
				}
				c = next
			}
		case *ast.BlockStmt:
			for _, inner := range s.List {
				walk(inner, false)
			}
		case *ast.ForStmt:
			walk(s.Body, false)
		case *ast.RangeStmt:
			walk(s.Body, false)
		case *ast.SwitchStmt:
			walk(s.Body, false)
		}
	}
	for _, s := range fd.Body.List {
		walk(s, false)
	}
}

// checkZeroRewrite flags `if o.X == 0 { ... o.X = d ... }` branches of a
// chain when no escape applies.
func checkZeroRewrite(pass *Pass, c *ast.IfStmt, chainHasToggle bool, negSentinel map[*types.Var]bool) {
	info := pass.TypesInfo
	be, ok := c.Cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	// Unwrap `o.X == 0` possibly conjoined with a toggle: handled by
	// condHasToggle via chainHasToggle, so only bare EQL matters here.
	if be.Op != token.EQL {
		return
	}
	var v *types.Var
	if cv := constValue(info, be.Y); cv != nil && isZero(cv) {
		v = fieldVar(info, be.X)
	} else if cv := constValue(info, be.X); cv != nil && isZero(cv) {
		v = fieldVar(info, be.Y)
	}
	if v == nil || !isNumeric(v.Type()) {
		return
	}
	// The branch must actually rewrite the field to count as a default.
	rewrites := false
	ast.Inspect(c.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if fieldVar(info, lhs) == v {
				rewrites = true
			}
		}
		return true
	})
	if !rewrites || chainHasToggle || negSentinel[v] {
		return
	}
	if pass.exempt(c.Pos(), "zerodefault-ok") {
		return
	}
	pass.Reportf(c.Pos(), "defaults rewrite of %s == 0 leaves no way to ask for an explicit zero: add a negative-sentinel branch (%s < 0 means zero) or a Disable%s toggle (or justify with //pollux:zerodefault-ok <reason>)", v.Name(), v.Name(), v.Name())
}

// condHasToggle reports whether e references a bool field named
// Disable*/Enable*.
func condHasToggle(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if strings.HasPrefix(name, "Disable") || strings.HasPrefix(name, "Enable") {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				found = true
			}
		}
		return !found
	})
	return found
}

// fieldVar resolves e as a selector of a struct field and returns the
// field, or nil.
func fieldVar(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

func constValue(info *types.Info, e ast.Expr) constant.Value {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok {
		return nil
	}
	return tv.Value
}

func isZero(v constant.Value) bool {
	switch v.Kind() {
	case constant.Int, constant.Float:
		f, _ := constant.Float64Val(constant.ToFloat(v))
		return f == 0
	}
	return false
}

func nonPositive(v constant.Value) bool {
	switch v.Kind() {
	case constant.Int, constant.Float:
		f, _ := constant.Float64Val(constant.ToFloat(v))
		return f <= 0
	}
	return false
}

func isNumeric(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}
