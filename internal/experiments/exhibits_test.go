package experiments

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/results"
)

// liveScale is the scale of each exhibit whose claims are also checked on
// a fresh run. The closed-form exhibits take no scale and run under
// -short too. The simulated ones run one seed (quick()), except Table 3:
// most quick-scale jobs never cross the 4-GPU-hour weight threshold, so
// the λ effect on the median is small and a single seed swings roughly
// ±12% around 1.0; averaging both QuickScale seeds keeps its claim
// meaningful (the paper's 0.77 needs full scale). diurnal64, fairness,
// replayparity and mega are checked on the baselines only: at a scale
// where their claims hold, one run each would outlast the whole package.
var liveScale = map[string]Scale{
	"fig1a": {}, "fig1b": {}, "fig2a": {}, "fig2b": {}, "fig3": {}, "fig6": {},
	"table2": quick(), "fig7": quick(), "fig8": quick(), "table3": QuickScale(),
	"fig9": quick(), "fig10": quick(), "validate": quick(),
}

// runLive runs exhibit id at its liveScale; a simulated exhibit is
// skipped under -short.
func runLive(t *testing.T, id string) Outcome {
	t.Helper()
	sc := liveScale[id]
	if sc.Nodes > 0 && testing.Short() {
		t.Skip("simulation experiment")
	}
	o, err := Run(id, sc)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func readBaseline(t *testing.T, name string) results.Report {
	t.Helper()
	base, err := results.ReadFile(filepath.Join("..", "..", "bench", "baselines", name))
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// TestExhibitClaims evaluates every claim of the registry on both
// checked-in baselines, with no simulation, and on one live run of each
// exhibit in liveScale; the live runs go in parallel.
func TestExhibitClaims(t *testing.T) {
	for _, scale := range []string{"quick", "full"} {
		base := readBaseline(t, scale+".json")
		for _, e := range exhibits {
			t.Run(scale+"/"+e.id, func(t *testing.T) {
				rec, ok := base.Find(e.id)
				if !ok {
					t.Fatalf("not in %s.json", scale)
				}
				for _, b := range BrokenClaims(rec) {
					t.Error(b)
				}
			})
		}
	}
	for _, e := range exhibits {
		if _, ok := liveScale[e.id]; !ok {
			continue
		}
		t.Run("live/"+e.id, func(t *testing.T) {
			t.Parallel()
			for _, b := range BrokenClaims(runLive(t, e.id).Record("quick")) {
				t.Error(b)
			}
		})
	}
}

// TestBrokenClaimsNamesTheClaim doctors the quick baseline's Fig. 9
// record: a claim it breaks is named with the values it read, and a claim
// whose metric is gone is broken too, not passed.
func TestBrokenClaimsNamesTheClaim(t *testing.T) {
	rec, ok := readBaseline(t, "quick.json").Find("fig9")
	if !ok {
		t.Fatal("fig9 not in the quick baseline")
	}
	doctored := rec
	doctored.Metrics = slices.Clone(rec.Metrics)
	for i, m := range doctored.Metrics {
		if m.Name == "off/0.50" {
			doctored.Metrics[i].Value = 0.9 // below on/0.50, which is 1
		}
	}
	broken := BrokenClaims(doctored)
	if len(broken) != 1 || !strings.Contains(broken[0], `"off/0.50 > on/0.50" does not hold: off/0.50=0.9 on/0.50=1`) {
		t.Errorf("doctored fig9: broken claims %q", broken)
	}

	doctored.Metrics = slices.DeleteFunc(doctored.Metrics, func(m results.Metric) bool { return m.Name == "off/0.50" })
	broken = BrokenClaims(doctored)
	if len(broken) != 1 || !strings.Contains(broken[0], `reads "off/0.50", which the record lacks`) {
		t.Errorf("fig9 without off/0.50: broken claims %q", broken)
	}
}

// TestClaimCheck covers the claim arithmetic at its edges: a scale, an
// offset, a metric name holding + and /, and claims that must not hold.
func TestClaimCheck(t *testing.T) {
	values := map[string]float64{"a": 2, "b": 1, "c+d/0.5": 0.5}
	value := func(k string) (float64, bool) { v, ok := values[k]; return v, ok }
	for expr, holds := range map[string]bool{
		"a >= 2 * b": true, "a > 2 * b": false, "a <= b + 1": true, "a < b + 1": false,
		"4 * c+d/0.5 == a": true, "a b": false, "a < e": false,
	} {
		if err := (claim{expr: expr}).check(value); (err == nil) != holds {
			t.Errorf("%q: check = %v, want holds %v", expr, err, holds)
		}
	}
}

// TestRunDispatch runs the closed-form exhibits, table2 and validate
// through the registry and holds each to its rows: one per GPU count
// (fig1a), hour (fig6) or policy (table2), and at least three batch
// sizes (validate).
func TestRunDispatch(t *testing.T) {
	wantRows := map[string]int{"fig1a": 6, "fig6": 8, "table2": 3}
	for _, id := range []string{"fig1a", "fig1b", "fig2a", "fig2b", "fig3", "fig6", "table2", "validate"} {
		t.Run(id, func(t *testing.T) {
			o := runLive(t, id)
			if o.ID != id || len(o.Rows) == 0 {
				t.Fatalf("Run(%q) returned an empty outcome", id)
			}
			if want, ok := wantRows[id]; ok && len(o.Rows) != want {
				t.Errorf("rows = %d, want %d", len(o.Rows), want)
			}
			if id == "validate" && len(o.Rows) < 3 {
				t.Errorf("rows = %d, want >= 3", len(o.Rows))
			}
			if s := o.String(); !strings.Contains(s, id) {
				t.Errorf("String() missing id: %s", s)
			}
		})
	}
	if _, err := Run("bogus", QuickScale()); err == nil {
		t.Error("Run(bogus) did not error")
	}
}

func TestAllListsEveryExperiment(t *testing.T) {
	ids := All()
	if len(ids) != 17 {
		t.Fatalf("All() = %d experiments, want 17 (12 paper exhibits + diurnal64 + fairness + replayparity + validate + mega)", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

// TestHeadlinesCoverEveryExhibit holds every headline and claim metric
// to a name its exhibit emits, as the quick baseline records them. A
// dead headline name would silently vanish from -md tables and the root
// benchmark's metrics; a dead claim name fails TestExhibitClaims too.
func TestHeadlinesCoverEveryExhibit(t *testing.T) {
	base := readBaseline(t, "quick.json")
	for _, e := range exhibits {
		rec, ok := base.Find(e.id)
		if !ok {
			t.Errorf("%s: not in the quick baseline", e.id)
			continue
		}
		names := slices.Clone(e.headlines)
		for _, c := range e.claims {
			c.check(func(name string) (float64, bool) { names = append(names, name); return 0, true })
		}
		for _, name := range names {
			if _, ok := rec.Metric(name); !ok {
				t.Errorf("%s: metric %q not in the baseline (dead name?)", e.id, name)
			}
		}
	}
}
