package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); math.Abs(got-5) > 1e-12 {
		t.Errorf("Percentile(50) = %v, want 5", got)
	}
	if got := Percentile(xs, 99); math.Abs(got-9.9) > 1e-12 {
		t.Errorf("Percentile(99) = %v, want 9.9", got)
	}
}

func TestPercentileSingleElement(t *testing.T) {
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile single = %v, want 7", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		s := make([]float64, n)
		copy(s, xs)
		sort.Float64s(s)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev-1e-12 || v < s[0]-1e-12 || v > s[n-1]+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickConfig(200)); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %v, want 2", got)
	}
}

func TestSummarize(t *testing.T) {
	recs := []JobRecord{
		{Submit: 0, Finish: 100},
		{Submit: 50, Finish: 250},
		{Submit: 10, Finish: 0}, // unfinished
	}
	s := Summarize(recs)
	if s.Completed != 2 || s.Total != 3 {
		t.Errorf("completed/total = %d/%d, want 2/3", s.Completed, s.Total)
	}
	if math.Abs(s.AvgJCT-150) > 1e-12 { // (100 + 200)/2
		t.Errorf("AvgJCT = %v, want 150", s.AvgJCT)
	}
	if math.Abs(s.Makespan-250) > 1e-12 {
		t.Errorf("Makespan = %v, want 250", s.Makespan)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Completed != 0 || s.AvgJCT != 0 || s.Makespan != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestAverage(t *testing.T) {
	runs := []Summary{
		{Completed: 10, Total: 10, AvgJCT: 100, P50JCT: 80, P99JCT: 300, Makespan: 1000, AvgEfficiency: 0.9,
			AvgThroughputX: 8000, AvgGoodputX: 5000},
		{Completed: 8, Total: 10, AvgJCT: 200, P50JCT: 120, P99JCT: 500, Makespan: 2000, AvgEfficiency: 0.7,
			AvgThroughputX: 6000, AvgGoodputX: 4000},
	}
	a := Average(runs)
	if a.Completed != 18 || a.Total != 20 {
		t.Errorf("counts = %d/%d, want 18/20", a.Completed, a.Total)
	}
	if math.Abs(a.AvgJCT-150) > 1e-9 || math.Abs(a.Makespan-1500) > 1e-9 {
		t.Errorf("averaged = %+v", a)
	}
	if math.Abs(a.AvgEfficiency-0.8) > 1e-9 {
		t.Errorf("AvgEfficiency = %v, want 0.8", a.AvgEfficiency)
	}
	// The relative factors average like every other field (they used to
	// be silently dropped).
	if math.Abs(a.AvgThroughputX-7000) > 1e-9 || math.Abs(a.AvgGoodputX-4500) > 1e-9 {
		t.Errorf("relative factors = %v/%v, want 7000/4500", a.AvgThroughputX, a.AvgGoodputX)
	}
	if z := Average(nil); z != (Summary{}) {
		t.Errorf("Average(nil) = %+v, want zero", z)
	}
}

func TestHours(t *testing.T) {
	if got := Hours(4320); got != "1.2h" {
		t.Errorf("Hours = %q, want 1.2h", got)
	}
}

func TestTableAligned(t *testing.T) {
	out := Table([]string{"policy", "avg"}, [][]string{
		{"pollux", "1.2h"},
		{"tiresias+tuned", "2.4h"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "policy") {
		t.Errorf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[3], "tiresias+tuned") || !strings.Contains(lines[3], "2.4h") {
		t.Errorf("row wrong: %q", lines[3])
	}
	// Columns aligned: "avg" starts at the same offset in all rows.
	idx := strings.Index(lines[0], "avg")
	if strings.Index(lines[2], "1.2h") != idx {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestSummarizeTenants(t *testing.T) {
	records := []JobRecord{
		{Tenant: "a", Submit: 0, Finish: 100, Deadline: 150},
		{Tenant: "a", Submit: 50, Finish: 300, Deadline: 200}, // missed SLO
		{Tenant: "a", Submit: 60, Rejected: true, Deadline: 100},
		{Tenant: "b", Submit: 10, Finish: 110},
	}
	ts := SummarizeTenants(records)
	if len(ts) != 2 {
		t.Fatalf("got %d tenants, want 2", len(ts))
	}
	a := ts["a"]
	if a.Summary.Total != 3 || a.Summary.Completed != 2 {
		t.Errorf("tenant a summary = %+v", a.Summary)
	}
	if a.SLOJobs != 2 || a.SLOMet != 1 {
		t.Errorf("tenant a SLO = %d/%d, want 1/2 (rejected job excluded)", a.SLOMet, a.SLOJobs)
	}
	b := ts["b"]
	if b.SLOJobs != 0 || b.Summary.AvgJCT != 100 {
		t.Errorf("tenant b = %+v", b)
	}
	if got := SummarizeTenants([]JobRecord{{Submit: 1, Finish: 2}}); got != nil {
		t.Errorf("tenant-less records produced %v, want nil", got)
	}
}

func TestAverageTenants(t *testing.T) {
	runs := []map[string]TenantSummary{
		{
			"a": {Tenant: "a", Summary: Summary{Completed: 2, Total: 2, AvgJCT: 100}, Submitted: 3, Admitted: 2, Rejected: 1, AvgGoodput: 10, AvgQueueDepth: 2},
			"b": {Tenant: "b", Summary: Summary{Completed: 1, Total: 1, AvgJCT: 50}, Submitted: 1, Admitted: 1},
		},
		{
			"a": {Tenant: "a", Summary: Summary{Completed: 2, Total: 2, AvgJCT: 200}, Submitted: 3, Admitted: 3, AvgGoodput: 20, AvgQueueDepth: 4},
		},
	}
	avg := AverageTenants(runs)
	a := avg["a"]
	if a.Submitted != 6 || a.Admitted != 5 || a.Rejected != 1 {
		t.Errorf("tenant a counters = %+v", a)
	}
	if got := a.Summary.AvgJCT; got != 150 {
		t.Errorf("tenant a AvgJCT = %v, want 150", got)
	}
	if a.AvgGoodput != 15 || a.AvgQueueDepth != 3 {
		t.Errorf("tenant a rates = %+v", a)
	}
	// Tenant b was absent from run 2: its averaged JCT divides by both runs.
	b := avg["b"]
	if b.Summary.AvgJCT != 25 {
		t.Errorf("tenant b AvgJCT = %v, want 25", b.Summary.AvgJCT)
	}
	if AverageTenants(nil) != nil {
		t.Error("AverageTenants(nil) != nil")
	}
}
