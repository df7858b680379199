package experiments

import (
	"fmt"
	"testing"
)

// The macro experiments drive full cluster simulations; they run at quick
// scale here and are skipped under -short.

func quick() Scale {
	sc := QuickScale()
	sc.Seeds = []int64{1} // single seed keeps the suite fast
	return sc
}

// shortScale is small enough that the simulation-backed experiments run
// even under -short, as smoke coverage for the full pipeline.
func shortScale() Scale {
	return Scale{
		Jobs: 8, Hours: 0.5, Nodes: 4, GPUsPerNode: 4,
		Seeds: []int64{1}, Tick: 4,
		PolluxPop: 10, PolluxGens: 5,
		AutoscaleEpochs: 2,
		Days:            0.25,
	}
}

// TestTable2ShortSmoke runs the heaviest macro experiment end to end at
// smoke scale under -short; it checks structure, not the paper's
// orderings, which need the quick scale to hold reliably.
func TestTable2ShortSmoke(t *testing.T) {
	o := Table2(shortScale())
	if len(o.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 policies", len(o.Rows))
	}
	for _, name := range []string{"Pollux", "Optimus+Oracle", "Tiresias+TunedJobs"} {
		if o.Values[name+"/avgJCT"] <= 0 {
			t.Errorf("%s: no JCT recorded", name)
		}
	}
}

// TestDiurnal64ShortSmoke runs the 64-node diurnal-Poisson exhibit end to
// end at a quarter-day window under -short; the full multi-day version
// runs via `pollux-bench -exp diurnal64`.
func TestDiurnal64ShortSmoke(t *testing.T) {
	o := Diurnal64(shortScale())
	if len(o.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 policies", len(o.Rows))
	}
	for _, name := range []string{"Pollux", "Tiresias+TunedJobs"} {
		if o.Values[name+"/total"] <= 0 {
			t.Errorf("%s: no jobs simulated", name)
		}
		if o.Values[name+"/completed"] <= 0 {
			t.Errorf("%s: no jobs completed", name)
		}
		if o.Values[name+"/avgJCT"] <= 0 {
			t.Errorf("%s: no JCT recorded", name)
		}
	}
}

// TestReplayParityShortSmoke runs the unified-runtime exhibit end to end
// at smoke scale under -short: every policy's trace goes through both
// the sim event engine and the testbed replay engine. The structural
// checks here complement the hard 5% bar of the cluster package's
// TestReplayVsSimParity on the standard 16-node trace.
func TestReplayParityShortSmoke(t *testing.T) {
	o, err := ReplayParity(shortScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 policies", len(o.Rows))
	}
	for _, name := range []string{"Pollux", "Optimus+Oracle", "Tiresias+TunedJobs"} {
		if o.Values[name+"/simJCT"] <= 0 || o.Values[name+"/replayJCT"] <= 0 {
			t.Errorf("%s: missing JCTs: sim %v replay %v",
				name, o.Values[name+"/simJCT"], o.Values[name+"/replayJCT"])
		}
		if d := o.Values[name+"/completedDelta"]; d != 0 {
			t.Errorf("%s: completed counts differ by %v", name, d)
		}
	}
}

// TestFig10ShortSmoke covers the autoscaling experiment under -short.
func TestFig10ShortSmoke(t *testing.T) {
	o := Fig10(shortScale())
	if len(o.Rows) == 0 {
		t.Fatal("no time series recorded")
	}
	if o.Values["pollux/cost"] <= 0 || o.Values["oretal/cost"] <= 0 {
		t.Errorf("costs not recorded: %v, %v", o.Values["pollux/cost"], o.Values["oretal/cost"])
	}
}

func TestTable2PolluxWins(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	o := Table2(quick())
	if len(o.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 policies", len(o.Rows))
	}
	p := o.Values["Pollux/avgJCT"]
	if p <= 0 {
		t.Fatal("no Pollux JCT recorded")
	}
	// The headline: Pollux beats both baselines on avg JCT even with
	// ideally-tuned jobs.
	if p >= o.Values["Optimus+Oracle/avgJCT"] {
		t.Errorf("Pollux %v not better than Optimus %v", p, o.Values["Optimus+Oracle/avgJCT"])
	}
	if p >= o.Values["Tiresias+TunedJobs/avgJCT"] {
		t.Errorf("Pollux %v not better than Tiresias %v", p, o.Values["Tiresias+TunedJobs/avgJCT"])
	}
	// Sec. 5.2.1: Pollux sustains higher statistical efficiency.
	if o.Values["Pollux/eff"] <= o.Values["Tiresias+TunedJobs/eff"] {
		t.Errorf("Pollux efficiency %v not above Tiresias %v",
			o.Values["Pollux/eff"], o.Values["Tiresias+TunedJobs/eff"])
	}
}

func TestFig7PolluxUnaffectedByUserConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	o := Fig7(quick())
	// Pollux's absolute JCT at 100% user-configured stays within 40% of
	// its 0% value (paper: unaffected), while Tiresias degrades more.
	p0 := o.Values["Pollux/abs/0"]
	p100 := o.Values["Pollux/abs/100"]
	if p100 > 1.4*p0 {
		t.Errorf("Pollux degraded with user configs: %v -> %v", p0, p100)
	}
	t100 := o.Values["Tiresias+TunedJobs/100"]
	if t100 <= 1.2 {
		t.Errorf("Tiresias at 100%% user-configured = %vx Pollux, want > 1.2x", t100)
	}
}

func TestFig8LoadDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	o := Fig8(quick())
	for _, name := range []string{"Pollux", "Optimus+Oracle", "Tiresias+TunedJobs"} {
		lo := o.Values[name+"/0.5"]
		hi := o.Values[name+"/2.0"]
		if hi < lo {
			t.Errorf("%s: JCT at 2x load (%v) below 0.5x load (%v)", name, hi, lo)
		}
	}
	// Pollux degrades no worse than Tiresias.
	if o.Values["Pollux/degradation"] > o.Values["Tiresias+TunedJobs/degradation"]+0.3 {
		t.Errorf("Pollux degradation %v well above Tiresias %v",
			o.Values["Pollux/degradation"], o.Values["Tiresias+TunedJobs/degradation"])
	}
}

func TestTable3WeightsImproveMedian(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// This runs at the full QuickScale (two seeds), not quick(): most
	// quick-scale jobs never cross the 4-GPU-hour weight threshold, so
	// the λ effect on the median is small and a single seed swings
	// roughly ±12% around 1.0 — historically past the 1.1 bound when
	// nondeterministic refits (since fixed) nudged the trajectory.
	// Averaging two seeds keeps the check meaningful; the paper's 0.77
	// needs full scale to reproduce.
	o := Table3(QuickScale())
	if o.Values["avg/0.0"] != 1 || o.Values["p50/0.0"] != 1 {
		t.Fatal("λ=0 row must be the normalization base")
	}
	// Direction: λ=0.5 should not hurt the median (paper: 0.77).
	if o.Values["p50/0.5"] > 1.1 {
		t.Errorf("p50 at λ=0.5 = %v, want <= 1.1", o.Values["p50/0.5"])
	}
}

func TestFig9AvoidanceShieldsInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	o := Fig9(quick())
	// With avoidance, JCT stays roughly flat across slowdowns.
	if o.Values["on/0.50"] > 1.25 {
		t.Errorf("avoidance-on JCT at 50%% slowdown = %v, want ~flat", o.Values["on/0.50"])
	}
	// Without avoidance, 50% slowdown must be worse than avoidance-on.
	if o.Values["off/0.50"] <= o.Values["on/0.50"] {
		t.Errorf("avoidance off (%v) not worse than on (%v) at 50%% slowdown",
			o.Values["off/0.50"], o.Values["on/0.50"])
	}
}

func TestFig10GoodputCheaper(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	o := Fig10(quick())
	if o.Values["costRatio"] >= 1 {
		t.Errorf("Pollux autoscaling cost ratio = %v, want < 1 (cheaper)", o.Values["costRatio"])
	}
	if o.Values["pollux/avgEff"] <= o.Values["oretal/avgEff"] {
		t.Errorf("Pollux avg efficiency %v not above Or et al. %v",
			o.Values["pollux/avgEff"], o.Values["oretal/avgEff"])
	}
}

func TestValidateEqn7OnRealSGD(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run convergence experiment")
	}
	o := Validate(quick())
	if len(o.Rows) < 3 {
		t.Fatalf("rows = %d, want >= 3", len(o.Rows))
	}
	if o.Values["worstOff"] > 2.5 {
		t.Errorf("worst discrepancy = %vx, want <= 2.5x", o.Values["worstOff"])
	}
}

// TestFairnessShortSmoke runs the multi-tenant fairness exhibit end to
// end at smoke scale under -short: three tenants per policy, binding
// quotas, and the admission accounting invariants that must hold at any
// scale (submitted = admitted + rejected, rejections exactly the quota
// overflow, identical across policies).
func TestFairnessShortSmoke(t *testing.T) {
	o := Fairness(shortScale())
	if len(o.Rows) != 6 {
		t.Fatalf("rows = %d, want 2 policies x 3 tenants", len(o.Rows))
	}
	for _, policy := range []string{"Pollux", "Tiresias+TunedJobs"} {
		for _, tenant := range []string{"prod", "batch", "burst"} {
			key := policy + "/" + tenant
			sub := o.Values[key+"/submitted"]
			adm := o.Values[key+"/admitted"]
			rej := o.Values[key+"/rejected"]
			if sub <= 0 {
				t.Errorf("%s: no submissions recorded", key)
			}
			//pollux:floateq-ok integer-valued counters carried in float64 fields; small-int sums are exact
			if adm+rej != sub {
				t.Errorf("%s: admitted %v + rejected %v != submitted %v", key, adm, rej, sub)
			}
			if tenant == "prod" && rej != 0 {
				t.Errorf("prod has no quota but %s rejected %v jobs", policy, rej)
			}
			if tenant != "prod" && rej <= 0 {
				t.Errorf("%s: quota should bind but nothing was rejected", key)
			}
			// Admission is policy-independent: same counts under both.
			//pollux:floateq-ok admission is policy-independent by construction; both counters are exact small ints
			if other := o.Values["Pollux/"+tenant+"/rejected"]; rej != other {
				t.Errorf("%s: rejected %v differs from Pollux's %v", key, rej, other)
			}
		}
	}
	if o.Values["Pollux/prod/avgJCT"] <= 0 {
		t.Error("prod: no JCT recorded")
	}
}

// TestMegaShortSmoke runs the scale exhibit end to end at toy dimensions
// under -short: the round sweep must show incremental+hierarchical
// rounds doing strictly less fitness work than a flat full round, and
// the deterministic (gated) cell counts must reproduce exactly.
func TestMegaShortSmoke(t *testing.T) {
	sc := shortScale()
	sc.MegaNodes = []int{8, 16}
	sc.MegaJobs = 24
	sc.MegaSimJobs = 8
	o := Mega(sc)
	if len(o.Rows) != 3 {
		t.Fatalf("rows = %d, want one per swept size plus the sim row", len(o.Rows))
	}
	for _, n := range []int{8, 16} {
		full := o.Values[fmt.Sprintf("n%d/fullCells", n)]
		inc := o.Values[fmt.Sprintf("n%d/incCellsPerRound", n)]
		if full <= 0 || inc <= 0 {
			t.Fatalf("n=%d: no fitness work recorded (full=%v inc=%v)", n, full, inc)
		}
		if inc >= full {
			t.Errorf("n=%d: incremental rounds did not cut fitness work (%v >= %v)", n, inc, full)
		}
	}
	if r := o.Values["reductionAtLargestN"]; r <= 1 {
		t.Errorf("reductionAtLargestN = %v, want > 1", r)
	}
	if o.Values["sim/completed"] <= 0 {
		t.Error("sim part completed no jobs")
	}

	o2 := Mega(sc)
	for _, key := range []string{
		"n8/fullCells", "n8/incCellsPerRound", "n16/fullCells",
		"n16/incCellsPerRound", "reductionAtLargestN", "sim/avgJCT",
	} {
		if o.Values[key] != o2.Values[key] { //pollux:floateq-ok gated metrics must reproduce bitwise run to run
			t.Errorf("%s not deterministic: %v vs %v", key, o.Values[key], o2.Values[key])
		}
	}
}
