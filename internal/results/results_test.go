package results

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport() Report {
	return Report{
		Scale:     "quick",
		StartedAt: "2026-07-28T00:00:00Z",
		GoVersion: "go1.24.0",
		Git:       Git{Commit: "abc123", Branch: "main", Dirty: true},
		Records: []Record{
			{
				Exhibit:  "table2",
				Title:    "Scheduler comparison",
				Scale:    "quick",
				Policies: []string{"Pollux", "Tiresias"},
				Seeds:    []int64{1, 2},
				Metrics: []Metric{
					{Name: "Pollux/avgJCT", Value: 2228.5, Unit: "s", RelTol: 0.05},
					{Name: "Tiresias/avgJCT", Value: 3900.25, Unit: "s", RelTol: 0.05},
				},
				Notes:        []string{"a note"},
				WallClockSec: 12.5,
			},
			{
				Exhibit: "fig6",
				Scale:   "quick",
				Metrics: []Metric{{Name: "peakRatio", Value: 3.084, Unit: "x"}},
			},
		},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 || got.Scale != "quick" || got.Git.Commit != "abc123" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	m, ok := got.Records[0].Metric("Pollux/avgJCT")
	//pollux:floateq-ok JSON round trip must hand the stored literals back verbatim
	if !ok || m.Value != 2228.5 || m.Unit != "s" || m.RelTol != 0.05 {
		t.Errorf("metric not preserved: %+v (ok=%v)", m, ok)
	}
	if got.Records[0].WallClockSec != 12.5 || got.Records[0].Notes[0] != "a note" {
		t.Errorf("record metadata not preserved: %+v", got.Records[0])
	}

	// A merge conflict marker after the report is not a report.
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("<<<<<<< HEAD\n")
	if _, err := ReadJSON(&buf); err == nil {
		t.Error("report followed by a conflict marker accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "report.json")
	rep := sampleReport()
	if err := WriteFile(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(got.Records))
	}
}

func TestCanonicalStripsVolatileAndIsStable(t *testing.T) {
	rep := sampleReport()
	// Unsorted metrics must come out sorted.
	rep.Records[0].Metrics[0], rep.Records[0].Metrics[1] = rep.Records[0].Metrics[1], rep.Records[0].Metrics[0]
	c := rep.Canonical()
	if c.StartedAt != "" || c.GoVersion != "" || c.Git != (Git{}) {
		t.Errorf("volatile report metadata survived: %+v", c)
	}
	if c.Records[0].WallClockSec != 0 || c.Records[0].Notes != nil {
		t.Errorf("volatile record metadata survived: %+v", c.Records[0])
	}
	if c.Records[0].Metrics[0].Name != "Pollux/avgJCT" {
		t.Errorf("metrics not sorted: %v", c.Records[0].Metrics)
	}
	// The original must be untouched (Canonical copies).
	if rep.Records[0].WallClockSec != 12.5 || rep.Records[0].Metrics[0].Name != "Tiresias/avgJCT" {
		t.Errorf("Canonical mutated its input: %+v", rep.Records[0])
	}
	// Byte-stability: two emissions of the canonical form are identical.
	var a, b bytes.Buffer
	if err := WriteJSON(&a, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, rep.Canonical()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("canonical emission not byte-stable")
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := sampleReport().Canonical()
	cur := sampleReport()
	// 3% drift on a 5%-band metric passes.
	cur.Records[0].Metrics[0].Value *= 1.03
	cmp := Compare(base, cur, Options{})
	if !cmp.OK() {
		t.Fatalf("expected pass, got: %s", cmp)
	}
	if cmp.Matched != 3 || cmp.Exhibits != 2 {
		t.Errorf("matched=%d exhibits=%d, want 3 and 2", cmp.Matched, cmp.Exhibits)
	}
}

func TestCompareRegressionBeyondTolerance(t *testing.T) {
	base := sampleReport().Canonical()
	cur := sampleReport()
	cur.Records[0].Metrics[0].Value *= 1.08 // 8% > 5% band
	cmp := Compare(base, cur, Options{})
	if cmp.OK() || len(cmp.Failures) != 1 {
		t.Fatalf("expected one failure, got: %s", cmp)
	}
	d := cmp.Failures[0]
	if d.Kind != KindRegression || d.Exhibit != "table2" || d.Metric != "Pollux/avgJCT" {
		t.Errorf("wrong diff: %+v", d)
	}
	if !strings.Contains(cmp.String(), "REGRESSION") || !strings.Contains(cmp.String(), "Pollux/avgJCT") {
		t.Errorf("report missing detail: %s", cmp)
	}
}

func TestCompareExactMetricRejectsAnyDrift(t *testing.T) {
	base := sampleReport().Canonical()
	cur := sampleReport()
	m := &cur.Records[1].Metrics[0] // peakRatio has no tolerance: exact
	m.Value += 1e-9
	if cmp := Compare(base, cur, Options{}); cmp.OK() {
		t.Error("zero-tolerance metric accepted drift")
	}
}

func TestCompareStructuralDiffs(t *testing.T) {
	base := sampleReport().Canonical()

	// Missing exhibit fails a full run but not a subset run.
	cur := sampleReport()
	cur.Records = cur.Records[:1]
	if cmp := Compare(base, cur, Options{}); cmp.OK() || cmp.Failures[0].Kind != KindMissingExhibit {
		t.Errorf("missing exhibit not flagged: %s", cmp)
	}
	if cmp := Compare(base, cur, Options{Subset: true}); !cmp.OK() {
		t.Errorf("subset run flagged missing exhibits: %s", cmp)
	}

	// New exhibit, missing metric, and new metric all fail.
	cur = sampleReport()
	cur.Records = append(cur.Records, Record{Exhibit: "fig99", Scale: "quick"})
	cur.Records[0].Metrics[0].Name = "Pollux/renamed"
	cmp := Compare(base, cur, Options{})
	kinds := map[string]bool{}
	for _, d := range cmp.Failures {
		kinds[d.Kind] = true
	}
	for _, want := range []string{KindNewExhibit, KindMissingMetric, KindNewMetric} {
		if !kinds[want] {
			t.Errorf("missing failure kind %s in: %s", want, cmp)
		}
	}
}

func TestCompareScaleMismatch(t *testing.T) {
	base := sampleReport().Canonical()
	cur := sampleReport()
	cur.Scale = "full"
	cmp := Compare(base, cur, Options{})
	if cmp.OK() || cmp.Failures[0].Kind != KindScaleMismatch {
		t.Errorf("scale mismatch not flagged: %s", cmp)
	}
}

func TestCompareAbsToleranceAndNaN(t *testing.T) {
	mk := func(v float64) Report {
		return Report{Scale: "quick", Records: []Record{{
			Exhibit: "replayparity", Scale: "quick",
			Metrics: []Metric{{Name: "Pollux/dJCT", Value: v, AbsTol: 0.05}},
		}}}
	}
	if cmp := Compare(mk(0.01), mk(0.04), Options{}); !cmp.OK() {
		t.Errorf("within absolute band flagged: %s", cmp)
	}
	if cmp := Compare(mk(0.01), mk(0.09), Options{}); cmp.OK() {
		t.Error("outside absolute band accepted")
	}
	if cmp := Compare(mk(math.NaN()), mk(math.NaN()), Options{}); !cmp.OK() {
		t.Errorf("NaN vs NaN flagged: %s", cmp)
	}
	if cmp := Compare(mk(0.01), mk(math.NaN()), Options{}); cmp.OK() {
		t.Error("NaN vs number accepted")
	}
}

func TestMerge(t *testing.T) {
	base := sampleReport().Canonical()
	update := Report{Scale: "quick", Records: []Record{
		{Exhibit: "fig6", Scale: "quick", Metrics: []Metric{{Name: "peakRatio", Value: 9.9, Unit: "x"}}},
		{Exhibit: "fig99", Scale: "quick"},
	}}
	merged := Merge(base, update)
	if len(merged.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(merged.Records))
	}
	// Order: base order first (table2, fig6 replaced in place), then new.
	if merged.Records[0].Exhibit != "table2" || merged.Records[1].Exhibit != "fig6" || merged.Records[2].Exhibit != "fig99" {
		t.Errorf("merge order wrong: %v", merged.Records)
	}
	//pollux:floateq-ok merge must carry the update's stored literal through verbatim
	if m, _ := merged.Records[1].Metric("peakRatio"); m.Value != 9.9 {
		t.Errorf("replaced record not taken from update: %+v", m)
	}
}

func TestMarkdown(t *testing.T) {
	rep := sampleReport()
	md := Markdown(rep, map[string][]string{"table2": {"Pollux/avgJCT"}})
	if !strings.Contains(md, "| table2 | Pollux/avgJCT | 2228 | s |") {
		t.Errorf("headline row missing:\n%s", md)
	}
	// fig6 has no headline entry: all metrics shown.
	if !strings.Contains(md, "| fig6 | peakRatio | 3.084 | x |") {
		t.Errorf("fallback row missing:\n%s", md)
	}
	// table2's non-headline metric is filtered out.
	if strings.Contains(md, "Tiresias/avgJCT") {
		t.Errorf("non-headline metric leaked:\n%s", md)
	}
}

func TestGitMetadataBestEffort(t *testing.T) {
	// A non-repository directory yields the zero value, not an error.
	if g := GitMetadata(t.TempDir()); g != (Git{}) {
		t.Errorf("expected zero Git outside a repo, got %+v", g)
	}
}
