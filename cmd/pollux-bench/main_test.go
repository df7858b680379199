package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/results"
)

// baselinePath is the checked-in quick-scale baseline, relative to this
// package directory (the test working directory).
var baselinePath = filepath.Join("..", "..", "bench", "baselines", "quick.json")

// TestSmokeAgainstCheckedInBaseline runs one cheap exhibit end to end
// through the orchestrator — sweep, JSON emission, baseline gate — against
// the checked-in quick baseline, the same invocation CI's bench job uses
// (just filtered).
func TestSmokeAgainstCheckedInBaseline(t *testing.T) {
	jsonOut := filepath.Join(t.TempDir(), "BENCH.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-exhibits", "fig1a,fig6", "-quiet",
		"-json", jsonOut,
		"-baseline", baselinePath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "within tolerance") {
		t.Errorf("gate report missing on stderr: %s", stderr.String())
	}
	rep, err := results.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2 || rep.Records[0].Exhibit != "fig1a" {
		t.Fatalf("unexpected report: %+v", rep.Records)
	}
	if m, ok := rep.Records[0].Metric("scaling2048"); !ok || m.Value <= 1 || m.Unit != "x" {
		t.Errorf("scaling2048 metric wrong: %+v (ok=%v)", m, ok)
	}
	if rep.Scale != "quick" || rep.GoVersion == "" {
		t.Errorf("report metadata missing: scale=%q go=%q", rep.Scale, rep.GoVersion)
	}
}

// TestPerturbedMetricFailsGate perturbs one baseline metric beyond its
// tolerance band and checks the gate exits non-zero with a per-metric
// diff naming it — the acceptance property of the regression gate.
func TestPerturbedMetricFailsGate(t *testing.T) {
	base, err := results.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := filepath.Join(t.TempDir(), "perturbed.json")
	found := false
	for ri := range base.Records {
		if base.Records[ri].Exhibit != "fig6" {
			continue
		}
		for mi := range base.Records[ri].Metrics {
			m := &base.Records[ri].Metrics[mi]
			if m.Name == "peakRatio" {
				m.Value *= 1.5 // far beyond any band (peakRatio is exact)
				found = true
			}
		}
	}
	if !found {
		t.Fatal("fig6/peakRatio not in baseline")
	}
	if err := results.WriteFile(perturbed, base); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exhibits", "fig6", "-quiet", "-baseline", perturbed}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("perturbed baseline passed the gate\nstdout: %s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "REGRESSION") || !strings.Contains(stderr.String(), "peakRatio") {
		t.Errorf("diff report missing the perturbed metric:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "outside baseline tolerance") {
		t.Errorf("stderr summary missing: %s", stderr.String())
	}
}

// TestUpdateBaselineRoundTrip writes a fresh baseline, verifies the same
// tree passes against it, that a second update is byte-identical, and
// that a filtered update merges instead of truncating.
func TestUpdateBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-exhibits", "fig1a,fig6", "-quiet", "-baseline", path, "-update-baseline"}, &out, &errb); code != 0 {
		t.Fatalf("update failed: %d %s", code, errb.String())
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-exhibits", "fig1a,fig6", "-quiet", "-baseline", path}, &out, &errb); code != 0 {
		t.Fatalf("gate failed against fresh baseline: %s\n%s", errb.String(), out.String())
	}
	if code := run([]string{"-exhibits", "fig1a,fig6", "-quiet", "-baseline", path, "-update-baseline"}, &out, &errb); code != 0 {
		t.Fatalf("second update failed: %d", code)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("baseline not byte-stable across two runs of an unchanged tree")
	}
	// A filtered update keeps the other exhibits.
	if code := run([]string{"-exhibits", "fig6", "-quiet", "-baseline", path, "-update-baseline"}, &out, &errb); code != 0 {
		t.Fatalf("merge update failed: %d", code)
	}
	rep, err := results.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Find("fig1a"); !ok {
		t.Error("filtered -update-baseline truncated other exhibits")
	}
}

// TestBrokenClaimFailsTheRun breaks one of Fig. 1a's claims by doctoring
// the exhibit's outcome: the run exits 1 naming the claim and its values,
// with and without -update-baseline, and the update leaves the baseline
// byte-identical.
func TestBrokenClaimFailsTheRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-exhibits", "fig1a", "-quiet", "-baseline", path, "-update-baseline"}, &out, &errb); code != 0 {
		t.Fatalf("seed update failed: %d %s", code, errb.String())
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func(orig func(string, experiments.Scale) (experiments.Outcome, error)) { runExhibit = orig }(runExhibit)
	runExhibit = func(id string, sc experiments.Scale) (experiments.Outcome, error) {
		o, err := experiments.Run(id, sc)
		o.Values["scaling2048"] = 1 // below scaling512
		return o, err
	}
	for _, update := range []bool{false, true} {
		args := []string{"-exhibits", "fig1a", "-quiet", "-baseline", path}
		if update {
			args = append(args, "-update-baseline")
		}
		errb.Reset()
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("update=%v: exit %d, want 1 (stderr: %s)", update, code, errb.String())
		}
		if !strings.Contains(errb.String(), `claim broken: fig1a: "scaling2048 > scaling512" does not hold: scaling2048=1 scaling512=`) {
			t.Errorf("update=%v: claim not named:\n%s", update, errb.String())
		}
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Error("-update-baseline with a broken claim rewrote the baseline")
	}
}

// TestUpdateRefusesCorruptBaseline: an existing-but-unparseable baseline
// must fail the update, not be silently truncated to this run's exhibits.
func TestUpdateRefusesCorruptBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-exhibits", "fig6", "-quiet", "-baseline", path, "-update-baseline"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if got, _ := os.ReadFile(path); string(got) != "{not json" {
		t.Error("corrupt baseline was overwritten")
	}
	if !strings.Contains(errb.String(), "read baseline for update") {
		t.Errorf("error not reported: %s", errb.String())
	}
}

// TestUpdateRefusesScaleMismatch: a filtered full-scale update must not
// merge into (and corrupt) the quick baseline.
func TestUpdateRefusesScaleMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-exhibits", "fig6", "-quiet", "-baseline", path, "-update-baseline"}, &out, &errb); code != 0 {
		t.Fatalf("seed update failed: %d %s", code, errb.String())
	}
	if code := run([]string{"-scale", "full", "-exhibits", "fig6", "-quiet", "-baseline", path, "-update-baseline"}, &out, &errb); code != 1 {
		t.Fatalf("mixed-scale update: exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "scale") {
		t.Errorf("scale mismatch not reported: %s", errb.String())
	}
	rep, err := results.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scale != "quick" {
		t.Errorf("baseline scale = %q, want untouched quick", rep.Scale)
	}
}

// TestBadFlagsRejected covers the orchestrator's argument validation.
func TestBadFlagsRejected(t *testing.T) {
	cases := [][]string{
		{"-exhibits", "nope"},
		{"-scale", "medium"},
		{"-update-baseline"}, // requires -baseline
		{"-exhibits", " , "},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
	// -h prints usage and exits 0, as it did under flag.ExitOnError.
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("run(-h) = %d, want 0", code)
	}
	if !strings.Contains(errb.String(), "-baseline") {
		t.Errorf("usage not printed: %s", errb.String())
	}
}

// TestGoBenchGateRoundTrip drives the -gobench mode end to end: seed a
// baseline from benchmark output, verify a rerun with only wall-clock
// drift passes the gate, and that a deterministic custom metric drifting
// fails it.
func TestGoBenchGateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	benchOut := `goos: linux
BenchmarkPolluxScheduleIncremental/full-8        2  555514208 ns/op  40304640 cells/round
BenchmarkPolluxScheduleIncremental/incremental-8 2   55824410 ns/op   7714560 cells/round
PASS
`
	outPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(outPath, []byte(benchOut), 0o644); err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "gobench.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-gobench", outPath, "-baseline", basePath, "-update-baseline"}, &out, &errb); code != 0 {
		t.Fatalf("seed update failed: %d %s", code, errb.String())
	}

	// Same deterministic metrics, different timings: passes.
	rerun := strings.ReplaceAll(benchOut, "555514208", "999999999")
	if err := os.WriteFile(outPath, []byte(rerun), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-gobench", outPath, "-baseline", basePath}, &out, &errb); code != 0 {
		t.Fatalf("wall-clock-only drift failed the gate: %s", errb.String())
	}

	// A drifting cells/round fails.
	drift := strings.ReplaceAll(benchOut, "40304640", "50000000")
	if err := os.WriteFile(outPath, []byte(drift), 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{"-gobench", outPath, "-baseline", basePath}, &out, &errb); code != 1 {
		t.Fatalf("cells/round drift: exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "cells/round") {
		t.Errorf("diff report missing cells/round:\n%s", errb.String())
	}

	// -gobench with an exhibit filter is a usage error.
	if code := run([]string{"-gobench", outPath, "-exhibits", "fig6"}, &out, &errb); code != 2 {
		t.Errorf("gobench+exhibits: exit %d, want 2", code)
	}
}
