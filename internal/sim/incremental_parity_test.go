package sim

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// standardTrace is the paper-shaped 16-node evaluation workload.
func standardTrace() workload.Trace {
	rng := rand.New(rand.NewSource(1))
	return workload.Generate(rng, workload.Options{
		Jobs: 40, Hours: 2, GPUsPerNode: 4, MaxGPUs: 64,
	})
}

func parityConfig(seed int64) Config {
	return Config{
		Nodes: 16, GPUsPerNode: 4, Tick: 1,
		UseTunedConfig: true, Seed: seed,
	}
}

// paritySeeds are the config and policy seeds the incremental parity check
// averages over. A single seed is one draw from the spread between two
// trajectories, not the agreement of two schedulers: per seed, incremental
// goodput is 8.6% to 17.5% above full on this trace and avg JCT 1.1% below
// to 4.6% above. Which seeds sit at the edge of a band moves with any
// change to the fit (EXPERIMENTS.md, "θsys fit in scaled variables and log
// space"); the mean over four seeds moves far less.
var paritySeeds = []int64{1, 2, 3, 4}

// parityMeans is the mean over paritySeeds of the metrics parity is judged on.
type parityMeans struct {
	jct, goodput, efficiency float64
}

func (m *parityMeans) add(r Result) {
	n := float64(len(paritySeeds))
	m.jct += r.Summary.AvgJCT / n
	m.goodput += r.AvgGoodput / n
	m.efficiency += r.Summary.AvgEfficiency / n
}

// TestIncrementalPolluxParityOnStandardTrace is the end-to-end half of
// the incremental-scheduling parity criterion: on the standard 16-node
// evaluation trace, Pollux with dirty-set incremental rounds and
// rack-hierarchical decomposition must not do worse than the full
// re-optimization on the exhibit metrics. The two schedulers make
// genuinely different decisions (the incremental one re-places only
// dirty jobs between FullEvery rounds and optimizes racks before nodes),
// so the comparison is statistical, on the mean over paritySeeds; the bar
// is 10% — the band the scaled-down exhibits use for JCT-level
// conclusions. It is one-sided: incremental rounds average higher goodput
// than full ones on this trace (+13.7% over seeds 1–4, at an avg JCT 0.8%
// longer), and a scheduler is not failed for being better.
func TestIncrementalPolluxParityOnStandardTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full scheduler comparison")
	}
	tr := standardTrace()
	var full, inc parityMeans
	for _, seed := range paritySeeds {
		run := func(opts sched.PolluxOptions) Result {
			opts.Population, opts.Generations = 20, 10
			return NewCluster(tr, sched.NewPollux(opts, seed), parityConfig(seed)).Run()
		}
		fr, ir := run(sched.PolluxOptions{}), run(sched.PolluxOptions{Incremental: true, RackSize: 4})
		if fr.Summary.Completed != ir.Summary.Completed {
			t.Errorf("seed %d completed: full %d vs incremental %d", seed, fr.Summary.Completed, ir.Summary.Completed)
		}
		t.Logf("seed %d: avg JCT full %.1f incremental %.1f (%+.1f%%), goodput %.1f vs %.1f (%+.1f%%), efficiency %.3f vs %.3f", seed,
			fr.Summary.AvgJCT, ir.Summary.AvgJCT, 100*(ir.Summary.AvgJCT/fr.Summary.AvgJCT-1),
			fr.AvgGoodput, ir.AvgGoodput, 100*(ir.AvgGoodput/fr.AvgGoodput-1),
			fr.Summary.AvgEfficiency, ir.Summary.AvgEfficiency)
		full.add(fr)
		inc.add(ir)
	}

	const tol = 0.10
	if d := inc.jct/full.jct - 1; d > tol {
		t.Errorf("mean avg JCT %.1f%% above full re-optimization: full %v vs incremental %v", 100*d, full.jct, inc.jct)
	}
	if d := 1 - inc.goodput/full.goodput; d > tol {
		t.Errorf("mean avg goodput %.1f%% below full re-optimization: full %v vs incremental %v", 100*d, full.goodput, inc.goodput)
	}
	if d := 1 - inc.efficiency/full.efficiency; d > tol {
		t.Errorf("mean avg efficiency %.1f%% below full re-optimization: full %v vs incremental %v", 100*d, full.efficiency, inc.efficiency)
	}
}
