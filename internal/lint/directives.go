package lint

// Directive scanning and staleness. A //pollux:<name> <reason> comment
// suppresses one analyzer's finding at a site; the registry tracks which
// directives actually suppressed (or contributed to) something so the
// driver can report the ones that no longer do. A suppression that has
// gone dead — the flagged code was refactored away but the annotation
// stayed — silently widens the trust base, so it is itself a finding.

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

const directivePrefix = "pollux:"

// A directive is one //pollux:<name> <reason> justification comment.
type directive struct {
	name   string
	reason string
	pos    token.Pos
	// used records that some analyzer consulted this directive at a site
	// it would otherwise have flagged (or propagated taint through).
	used bool
	// missingReported dedupes the missing-reason finding when several
	// analyzers consult the same bare directive.
	missingReported bool
}

// Directives is one compilation unit's directive registry, shared by
// every analyzer pass over the unit so use is tracked across analyzers.
type Directives struct {
	fset   *token.FileSet
	byFile map[string]map[int]*directive // filename → line → directive
	all    []*directive                  // in file/position order
}

// ScanDirectives collects every //pollux: comment in files.
func ScanDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	ds := &Directives{fset: fset, byFile: map[string]map[int]*directive{}}
	for _, f := range files {
		fname := fset.File(f.Pos()).Name()
		byLine := ds.byFile[fname]
		if byLine == nil {
			byLine = map[int]*directive{}
			ds.byFile[fname] = byLine
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				dname, reason, _ := strings.Cut(text, " ")
				d := &directive{
					name:   dname,
					reason: strings.TrimSpace(reason),
					pos:    c.Pos(),
				}
				byLine[fset.Position(c.Pos()).Line] = d
				ds.all = append(ds.all, d)
			}
		}
	}
	return ds
}

// find returns the directive named name on pos's line or the line above.
func (ds *Directives) find(pos token.Pos, name string) *directive {
	posn := ds.fset.Position(pos)
	byLine := ds.byFile[posn.Filename]
	for _, line := range []int{posn.Line, posn.Line - 1} {
		if d := byLine[line]; d != nil && d.name == name {
			return d
		}
	}
	return nil
}

// StaleDirectives reports directives that did nothing: a name no
// registered analyzer owns (typo, or an analyzer that was removed), or a
// directive for an analyzer that ran and suppressed no finding through
// it. Call after every analyzer in ran has completed; registry is the
// full analyzer registry (names outside ran are skipped, not stale — the
// analyzer that would consume them was deselected this run).
func StaleDirectives(ds *Directives, ran, registry []*Analyzer) []Diagnostic {
	known := map[string]string{} // directive → analyzer name
	for _, a := range registry {
		if a.Directive != "" {
			known[a.Directive] = a.Name
		}
	}
	active := map[string]bool{}
	for _, a := range ran {
		if a.Directive != "" {
			active[a.Directive] = true
		}
	}
	var diags []Diagnostic
	for _, d := range ds.all {
		switch {
		case known[d.name] == "":
			names := make([]string, 0, len(known))
			for n := range known {
				names = append(names, n)
			}
			sort.Strings(names)
			diags = append(diags, Diagnostic{
				Pos:     d.pos,
				Message: fmt.Sprintf("unknown directive //%s%s: known directives are %s", directivePrefix, d.name, strings.Join(names, ", ")),
			})
		case active[d.name] && !d.used:
			diags = append(diags, Diagnostic{
				Pos:     d.pos,
				Message: fmt.Sprintf("stale //%s%s: it suppresses no %s finding — remove it (or re-justify the code it was written for)", directivePrefix, d.name, known[d.name]),
			})
		}
	}
	return diags
}

// dirs returns the pass's directive registry, scanning lazily when the
// driver supplied none.
func (p *Pass) dirs() *Directives {
	if p.Dirs == nil {
		p.Dirs = ScanDirectives(p.Fset, p.Files)
	}
	return p.Dirs
}

// exempt reports whether the finding at pos is suppressed by a
// //pollux:<name> directive on the same line or the line above. A
// directive that matches but carries no reason still suppresses —
// instead the missing reason is reported, so the tree cannot go clean on
// bare annotations.
func (p *Pass) exempt(pos token.Pos, name string) bool {
	d := p.dirs().find(pos, name)
	if d == nil {
		return false
	}
	d.used = true
	if d.reason == "" && !d.missingReported {
		d.missingReported = true
		p.Reportf(pos, "//%s%s needs a reason: say why this site is safe", directivePrefix, name)
	}
	return true
}
