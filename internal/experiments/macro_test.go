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
