package lint

import (
	"go/ast"
	"go/types"
)

// DetMap flags `range` over a map in determinism-critical packages.
//
// Go randomizes map iteration order, so anything order-dependent inside
// such a loop — an rng draw, a float accumulation, an append consumed
// unsorted — perturbs fixed-seed traces (an unsorted profile drain
// feeding agent refits once made the Table 3 exhibit flaky).
// The rule is plain: every map range in a non-test file of a critical
// package either goes (sort a key slice first, or let maps.Copy,
// maps.Keys + slices.Sorted and friends say what the loop did) or
// carries //pollux:order-ok <reason>, which tells the next reader why
// this body's outcome does not depend on the order.
var DetMap = &Analyzer{
	Name:      "detmap",
	Doc:       "flags range over a map in determinism-critical packages unless justified //pollux:order-ok",
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
			rs, ok := n.(*ast.RangeStmt)
			if !ok || rs.X == nil || pass.TypesInfo.TypeOf(rs.X) == nil {
				return true
			}
			if _, isMap := under(pass.TypesInfo.TypeOf(rs.X)).(*types.Map); isMap && !pass.exempt(rs.Pos(), "order-ok") {
				pass.Reportf(rs.Pos(), "range over map in determinism-critical package %s: iteration order is random; sort a key slice first, or justify with //pollux:order-ok <reason>", pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}
