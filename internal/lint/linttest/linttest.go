// Package linttest runs internal/lint analyzers over testdata fixture
// packages and checks reported diagnostics against // want comments, in
// the style of golang.org/x/tools/go/analysis/analysistest (which the
// build cannot depend on — see internal/lint).
//
// Fixtures live in testdata/src/<pkgpath>/ relative to the calling
// test. Each line that should be flagged carries a trailing
//
//	// want "regexp"
//
// comment ("// want `regexp`" also works; several per line allowed).
// Diagnostics and want comments are matched per line: every diagnostic
// must match a want on its line and every want must be matched.
//
// Fixture packages may import the standard library and sibling fixture
// packages (import path = directory name under testdata/src); both are
// typechecked from source, so no build cache or module proxy is needed.
//
// Facts flow like they do under the real driver: before a fixture
// package is checked, the analyzer is first run over its fixture
// dependencies (bottom-up, diagnostics discarded) and their exported
// fact tables are installed in the target pass — so a // want in a
// fixture can assert on a diagnostic that only exists because of a fact
// imported from another fixture package.
//
// A fixture is loaded and analyzed by lint.Load and lint.Run, the calls
// the driver makes for a go vet unit, so the stale-directive findings
// for the analyzer under test (plus unknown-directive findings) are
// matched against // want comments too.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Run analyzes each fixture package under testdata/src with a and
// reports mismatches against the // want annotations. Fixture
// dependencies are analyzed first (facts only), and the stale-directive
// check runs for a's directive after the analyzer pass.
func Run(t *testing.T, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := newLoader(t)

	// tables caches each fixture package's exported facts so shared
	// dependencies are analyzed once per Run.
	tables := map[string]map[string][]lint.Fact{}
	var analyze func(t *testing.T, pkgPath string) (*fixturePkg, []lint.Diagnostic)
	analyze = func(t *testing.T, pkgPath string) (*fixturePkg, []lint.Diagnostic) {
		t.Helper()
		pkg := ld.load(t, pkgPath)
		facts := lint.NewFacts(pkgPath)
		for _, dep := range pkg.deps {
			if _, ok := tables[dep]; !ok {
				analyze(t, dep) // deps carry no wants
			}
			facts.AddImported(dep, tables[dep])
		}
		diags, err := lint.Run(pkg.unit, facts, []*lint.Analyzer{a})
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		tables[pkgPath] = facts.Exported()
		return pkg, diags
	}

	for _, pkgPath := range pkgPaths {
		t.Run(a.Name+"/"+pkgPath, func(t *testing.T) {
			t.Helper()
			pkg, diags := analyze(t, pkgPath)
			check(t, ld.fset, pkg, diags)
		})
	}
}

type fixturePkg struct {
	unit  *lint.Unit
	deps  []string                   // fixture-local imports, in first-use order
	wants map[string]map[int][]*want // filename → line → wants
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

func check(t *testing.T, fset *token.FileSet, pkg *fixturePkg, diags []lint.Diagnostic) {
	t.Helper()
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		matched := false
		for _, w := range pkg.wants[posn.Filename][posn.Line] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", posn, d.Message)
		}
	}
	var missing []string
	for fname, byLine := range pkg.wants {
		for line, ws := range byLine {
			for _, w := range ws {
				if !w.matched {
					missing = append(missing, fmt.Sprintf("%s:%d: no diagnostic matching %q", fname, line, w.re))
				}
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s", m)
	}
}

// loader typechecks fixture packages, resolving fixture-local imports
// from testdata/src and everything else from GOROOT source via the
// "source" importer.
type loader struct {
	fset    *token.FileSet
	root    string // testdata/src
	std     types.Importer
	pkgs    map[string]*fixturePkg
	loading map[string]bool
}

func newLoader(t *testing.T) *loader {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    root,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*fixturePkg{},
		loading: map[string]bool{},
	}
}

func (ld *loader) load(t *testing.T, pkgPath string) *fixturePkg {
	t.Helper()
	if pkg, ok := ld.pkgs[pkgPath]; ok {
		return pkg
	}
	if ld.loading[pkgPath] {
		t.Fatalf("import cycle through fixture %q", pkgPath)
	}
	ld.loading[pkgPath] = true
	defer delete(ld.loading, pkgPath)

	dir := filepath.Join(ld.root, filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture package %q: %v", pkgPath, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	if len(names) == 0 {
		t.Fatalf("fixture package %q has no .go files", pkgPath)
	}
	pkg := &fixturePkg{wants: map[string]map[int][]*want{}}
	pkg.unit, err = lint.Load(ld.fset, pkgPath, "", names, func(path string) (*types.Package, error) {
		if _, err := os.Stat(filepath.Join(ld.root, filepath.FromSlash(path))); err != nil {
			return ld.std.Import(path)
		}
		if !slices.Contains(pkg.deps, path) {
			pkg.deps = append(pkg.deps, path)
		}
		return ld.load(t, path).unit.Pkg, nil
	})
	if err != nil {
		t.Fatalf("load fixture %q: %v", pkgPath, err)
	}
	for _, f := range pkg.unit.Files {
		pkg.wants[ld.fset.File(f.Pos()).Name()] = parseWants(t, ld.fset, f)
	}
	ld.pkgs[pkgPath] = pkg
	return pkg
}

var wantRe = regexp.MustCompile("// want (.*)$")

func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) map[int][]*want {
	t.Helper()
	byLine := map[int][]*want{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, pat := range splitPatterns(t, m[1], fset.Position(c.Pos())) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", fset.Position(c.Pos()), pat, err)
				}
				byLine[line] = append(byLine[line], &want{re: re})
			}
		}
	}
	return byLine
}

// splitPatterns parses `"re1" "re2"` or backquoted equivalents.
func splitPatterns(t *testing.T, s string, posn token.Position) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s: want patterns must be quoted, got %q", posn, s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			t.Fatalf("%s: unterminated want pattern %q", posn, s)
		}
		pats = append(pats, s[1:1+end])
		s = strings.TrimSpace(s[2+end:])
	}
	return pats
}
