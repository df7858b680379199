package main

import (
	"math"
	"regexp"
	"sort"
	"testing"
)

// same reports exact identity: the values compared are parsed or picked,
// never recomputed.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); !same(got, c.want) {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if p50, p100 := percentile(xs, 50), percentile(xs, 100); p50 != 50.5 || p100 != 100 {
		t.Errorf("percentile of 1..100: p50 %v p100 %v, want 50.5 and 100", p50, p100)
	}
	if percentile(nil, 90) != 0 {
		t.Error("percentile of no samples is not 0")
	}
	if m := median([]float64{4, 1}); m != 2.5 {
		t.Errorf("median of two = %v, want their mean 2.5", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// svc.round 100 → {submit 10, step 80 → {round 5, schedule 60, commit 10}}
	spans := []span{
		{ID: 0, Parent: -1, Name: "svc.round", DurNS: 100},
		{ID: 1, Parent: 0, Name: "cluster.submit_reports", DurNS: 10},
		{ID: 2, Parent: 0, Name: "runtime.step", DurNS: 80},
		{ID: 3, Parent: 2, Name: "cluster.service_round", DurNS: 5},
		{ID: 4, Parent: 2, Name: "sched.schedule", DurNS: 60},
		{ID: 5, Parent: 2, Name: "cluster.service_commit", DurNS: 10},
	}
	want := []int64{10, 10, 5, 5, 60, 10}
	got := selfNS(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if step := byName(spans, got, "runtime.step"); len(step) != 1 || !same(step[0], 5e-9) {
		t.Errorf("byName(runtime.step) = %v, want [5e-09]", step)
	}

	tr := newTracer("w")
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Errorf("parents = %d, %d; want %d, -1", tr.spans[inner].Parent, tr.spans[outer].Parent, outer)
	}
	var off *tracer
	off.end(off.begin("ignored")) // the untraced pass records nothing and must not panic
}

const cannedTop = `File: pollux-benchmark
Type: cpu
Time: Sep 25, 2026 at 11:45pm (UTC)
Duration: 16.31s, Total samples = 17.60s (107.90%)
Showing nodes accounting for 17.60s, 100% of 17.60s total
      flat  flat%   sum%        cum   cum%
         0     0%     0%     13.80s 78.41%  repro/internal/agent.(*Agent).Refit
     0.01s 0.057% 0.057%     13.76s 78.18%  repro/internal/core.Fit
     0.02s  0.11%  0.17%      2.35s 13.35%  repro/internal/ga.(*GA).Step
     0.30s  1.70%  1.87%      0.40s  2.27%  runtime.mallocgc
     0.05s  0.28%  2.15%      0.05s  0.28%  repro/internal/core.Efficiency (inline)
         0     0%  2.15%      0.02s  0.11%  repro/internal/ga.New
`

func TestParseTop(t *testing.T) {
	cum, err := parseTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"repro/internal/agent.(*Agent).Refit": 78.41,
		"repro/internal/core.Fit":             78.18,
		"repro/internal/ga.(*GA).Step":        13.35,
		"runtime.mallocgc":                    2.27,
		"repro/internal/core.Efficiency":      0.28,
	} {
		if !same(cum[name], want) {
			t.Errorf("cum%% of %s = %v, want %v", name, cum[name], want)
		}
	}
	if len(cum) != 6 {
		t.Errorf("parsed %d rows, want 6: %v", len(cum), cum)
	}
	if _, err := parseTop("no table here\n"); err == nil {
		t.Error("output without a table header parsed without error")
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// holds the names it emits against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			if !valid.MatchString(m.Name) {
				t.Errorf("metric name %q is not of the allowed form", m.Name)
			}
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	if len(spec.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayerNames))
	}
	for i, m := range perLayerNames {
		better := map[bool]string{false: "lower", true: "higher"}[m.higher]
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, the benchmark has {%s %s %s}", i, got, m.name, m.unit, better)
		}
	}
	defs := workloads(true)
	if len(defs) != len(spec.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(defs))
	}
	for i, def := range defs {
		if def.name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, def.name, spec.Workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			want := names(spec.EndToEnd)
			if traced {
				want = names(spec.PerLayer)
			}
			cfg := runConfig{workload: def.name, seed: 3, short: true, trace: traced, scratch: t.TempDir()}
			cfg.traceOut = cfg.scratch + "/spans.json"
			out, err := runWorkload(def, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if !out.Correct || out.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", def.name, traced, out.Failed, out.Attempted, out.failures)
			}
			var got []string
			for name, m := range out.Metrics {
				got = append(got, name)
				for _, s := range append(spec.EndToEnd, spec.PerLayer...) {
					if s.Name == name && s.Unit != m.Unit {
						t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", def.name, name, m.Unit, s.Unit)
					}
				}
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json lists %d\n got %v\nwant %v", def.name, traced, len(got), len(want), got, want)
				continue
			}
			for k := range got {
				if got[k] != want[k] {
					t.Errorf("%s traced=%v: emitted %q where BENCHMARK.json lists %q", def.name, traced, got[k], want[k])
				}
			}
		}
	}
}
