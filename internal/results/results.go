// Package results is the machine-readable half of the exhibit pipeline:
// it turns experiment outcomes into typed per-exhibit Records, emits and
// parses the JSON reports that CI archives, and compares a run against a
// checked-in baseline with per-metric tolerance bands (see Compare).
//
// The flow is: internal/experiments produces an Outcome per exhibit →
// Outcome.Record converts it to a Record → cmd/pollux-bench collects the
// Records of a sweep into a Report, writes it with -json, and gates it
// against bench/baselines/<scale>.json with -baseline. Baselines are
// stored in canonical form (volatile metadata stripped, metrics sorted)
// so that two runs of an unchanged tree produce bit-identical files.
package results

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Metric is one named measurement of an exhibit run, together with the
// tolerance band the regression gate grants it. A zero band means the
// value must match the baseline exactly — the right gate for closed-form
// exhibits and for anything downstream of a fixed-seed rng draw sequence,
// where any drift is a behavior change. Sim-backed exhibits carry small
// relative bands because intentional model/optimizer changes (e.g. the
// warm-refit cadence) legitimately move values at the last digits.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	// RelTol and AbsTol define the acceptance band against a baseline
	// value b: |v-b| <= RelTol*max(|v|,|b|) + AbsTol.
	RelTol float64 `json:"relTol,omitempty"`
	AbsTol float64 `json:"absTol,omitempty"`
	// Volatile marks a measurement that varies run to run on an unchanged
	// tree — wall-clock times, bytes allocated. The gate still checks
	// the metric exists (so a benchmark cannot silently stop reporting)
	// but never compares its value, and Canonical zeroes it so baselines
	// stay bit-reproducible.
	Volatile bool `json:"volatile,omitempty"`
}

// Record is one exhibit run: identity, the configuration axes that
// determine its numbers, and the measured metrics.
type Record struct {
	Exhibit  string   `json:"exhibit"`
	Title    string   `json:"title,omitempty"`
	Scale    string   `json:"scale"`
	Policies []string `json:"policies,omitempty"`
	Seeds    []int64  `json:"seeds,omitempty"`
	Metrics  []Metric `json:"metrics"`
	Notes    []string `json:"notes,omitempty"`
	// WallClockSec is how long the exhibit took to regenerate. Volatile:
	// stripped from baselines by Canonical.
	WallClockSec float64 `json:"wallClockSec,omitempty"`
}

// Metric returns the named metric, if recorded.
func (r Record) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// SortMetrics orders metrics by name so emission is deterministic
// regardless of the map iteration that produced them.
func (r *Record) SortMetrics() {
	sort.Slice(r.Metrics, func(i, j int) bool { return r.Metrics[i].Name < r.Metrics[j].Name })
}

// Git identifies the tree a report was generated from. Volatile: stripped
// from baselines by Canonical.
type Git struct {
	Commit string `json:"commit,omitempty"`
	Branch string `json:"branch,omitempty"`
	Dirty  bool   `json:"dirty,omitempty"`
}

// Report is a full sweep emission: environment metadata plus one Record
// per exhibit, in run order.
type Report struct {
	Scale string `json:"scale"`
	// StartedAt is the sweep start in RFC3339 UTC. Volatile.
	StartedAt string `json:"startedAt,omitempty"`
	// GoVersion is runtime.Version() of the generating binary. Volatile.
	GoVersion string   `json:"goVersion,omitempty"`
	Git       Git      `json:"git"`
	Records   []Record `json:"records"`
}

// Find returns the record for an exhibit id, if present.
func (rep Report) Find(exhibit string) (Record, bool) {
	for _, r := range rep.Records {
		if r.Exhibit == exhibit {
			return r, true
		}
	}
	return Record{}, false
}

// Canonical returns a copy suitable for checking in as a baseline: all
// volatile fields (timestamps, git identity, Go version, wall clock, and
// the values of Volatile metrics) are zeroed, notes are dropped, and
// metrics are sorted, so regenerating an unchanged tree reproduces the
// file bit for bit.
func (rep Report) Canonical() Report {
	out := Report{Scale: rep.Scale, Records: make([]Record, len(rep.Records))}
	for i, r := range rep.Records {
		cr := r
		cr.WallClockSec = 0
		cr.Notes = nil
		cr.Metrics = append([]Metric(nil), r.Metrics...)
		for j := range cr.Metrics {
			if cr.Metrics[j].Volatile {
				cr.Metrics[j].Value = 0
			}
		}
		(&cr).SortMetrics()
		out.Records[i] = cr
	}
	return out
}

// Merge returns base with cur's records replacing same-exhibit entries in
// place and unseen exhibits appended in cur's order. It is how
// -update-baseline refreshes a filtered sweep without truncating the
// baseline's other exhibits. Report metadata is taken from cur.
func Merge(base, cur Report) Report {
	out := cur
	out.Records = nil
	replaced := make(map[string]bool, len(cur.Records))
	for _, r := range cur.Records {
		replaced[r.Exhibit] = true
	}
	for _, r := range base.Records {
		if replaced[r.Exhibit] {
			nr, _ := cur.Find(r.Exhibit)
			out.Records = append(out.Records, nr)
			delete(replaced, r.Exhibit)
		} else {
			out.Records = append(out.Records, r)
		}
	}
	for _, r := range cur.Records {
		if replaced[r.Exhibit] {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// WriteJSON emits the report as indented JSON with a trailing newline.
func WriteJSON(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadJSON parses a report written by WriteJSON. Anything but white space
// after the report is an error.
func ReadJSON(r io.Reader) (Report, error) {
	var rep Report
	data, err := io.ReadAll(r)
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	if err != nil {
		return Report{}, fmt.Errorf("results: parse report: %w", err)
	}
	return rep, nil
}

// ReadFile loads a report (e.g. a baseline) from disk.
func ReadFile(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	rep, err := ReadJSON(f)
	if err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// WriteFile writes a report to disk, creating parent directories.
func WriteFile(path string, rep Report) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// GitMetadata describes the repository at dir, best effort: a missing git
// binary or a non-repository yields the zero value, never an error (the
// metadata is informational and stripped from baselines anyway).
func GitMetadata(dir string) Git {
	run := func(args ...string) string {
		out, err := exec.Command("git", append([]string{"-C", dir}, args...)...).Output()
		if err != nil {
			return ""
		}
		return strings.TrimSpace(string(out))
	}
	g := Git{
		Commit: run("rev-parse", "HEAD"),
		Branch: run("rev-parse", "--abbrev-ref", "HEAD"),
	}
	if g.Commit != "" {
		g.Dirty = run("status", "--porcelain") != ""
	}
	return g
}
