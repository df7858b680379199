// Line-budget test: aim 2 of the roadmap (the same numbers from the least
// code) as a gate. TestNonTestLinesWithinBudget counts the non-test lines
// of the root module the way CI's "non-test line count per package" step
// does and fails when the total is above the count recorded in
// bench/baselines/lines.json. A change that lowers the total re-records it
// with -update, so the budget tightens; one that raises it re-records too
// and says in CHANGES.md what bought the lines.
package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record bench/baselines/lines.json from the tree")

const linesFile = "bench/baselines/lines.json"

// lineRecord is the content of linesFile.
type lineRecord struct {
	Rule     string         `json:"rule"`
	Total    int            `json:"total"`
	Packages map[string]int `json:"packages"`
}

// nonTestLines counts newlines, as wc -l does, in the module's .go files
// that are not _test.go files, per directory: CI's rule, which takes the
// files git tracks outside testdata/ and leaves the nested benchmark/
// module to a total of its own. Walking the tree instead of asking git
// counts the same files in a clean checkout; hidden directories are
// skipped, so the benchmark's .bench_build/ cache is not read.
func nonTestLines(t *testing.T) lineRecord {
	t.Helper()
	rec := lineRecord{
		Rule:     "wc -l of git ls-files '*.go', without _test.go, testdata/ and the benchmark/ module",
		Packages: map[string]int{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || p == "benchmark" || (strings.HasPrefix(name, ".") && p != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		n := bytes.Count(data, []byte("\n"))
		rec.Packages[path.Dir(filepath.ToSlash(p))] += n
		rec.Total += n
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestNonTestLinesWithinBudget(t *testing.T) {
	got := nonTestLines(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(linesFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d non-test lines in %s", got.Total, linesFile)
		return
	}
	data, err := os.ReadFile(linesFile)
	if err != nil {
		t.Fatal(err)
	}
	var want lineRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", linesFile, err)
	}
	if got.Total > want.Total {
		var grown []string
		for pkg, n := range got.Packages {
			if n > want.Packages[pkg] {
				grown = append(grown, pkg)
			}
		}
		sort.Strings(grown)
		for _, pkg := range grown {
			t.Logf("%s: %d non-test lines, %d recorded", pkg, got.Packages[pkg], want.Packages[pkg])
		}
		t.Errorf("the root module has %d non-test lines, above the %d of %s; "+
			"cut them, or re-record with go test -run TestNonTestLinesWithinBudget -update . "+
			"and say in CHANGES.md what bought the lines", got.Total, want.Total, linesFile)
	}
	if got.Total < want.Total {
		t.Logf("%d non-test lines, %d under the record: re-record with -update to tighten the budget", got.Total, want.Total-got.Total)
	}
}
