package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ReplayParity is the unified-runtime exhibit: the same trace is run
// through the trace-driven simulator's event engine and through the
// live-testbed replay engine (the full Sec. 4.3 control path — Service,
// agent reports, runtime.Step rounds — on virtual time), and the JCT and
// goodput deltas are reported per policy. The two engines draw different
// rng sequences, so agreement is statistical; the acceptance bar pinned
// by TestReplayVsSimParity is 5% on the standard 16-node trace.
func ReplayParity(sc Scale) (Outcome, error) {
	o := Outcome{
		Title: fmt.Sprintf("Simulator vs testbed-replay parity (%d nodes x %d GPUs)", sc.Nodes, sc.GPUsPerNode),
		Header: []string{"policy", "sim JCT", "replay JCT", "dJCT",
			"sim goodput", "replay goodput", "dGoodput"},
		Policies: sc.policyNames(),
		Seeds:    []int64{1},
		RelTol:   simRelTol,
	}
	rng := rand.New(rand.NewSource(1))
	tr := workload.Generate(rng, workload.Options{
		Jobs: sc.Jobs, Hours: sc.Hours,
		GPUsPerNode: sc.GPUsPerNode, MaxGPUs: sc.Nodes * sc.GPUsPerNode,
	})
	cfg := sc.simConfig()
	cfg.Seed = 1
	for _, f := range sc.factories() {
		simRes := sim.NewCluster(tr, f.make(1), cfg).Run()
		repRes, err := cluster.Replay(tr, f.make(1), cluster.ReplayConfig{
			Nodes: sc.Nodes, GPUsPerNode: sc.GPUsPerNode,
			UseTunedConfig: true, Seed: 1,
		})
		if err != nil {
			return Outcome{}, fmt.Errorf("replayparity: %s: %w", f.name, err)
		}
		dJCT := relDelta(repRes.Summary.AvgJCT, simRes.Summary.AvgJCT)
		dGood := relDelta(repRes.AvgGoodput, simRes.AvgGoodput)
		o.Rows = append(o.Rows, []string{
			f.name,
			metrics.Hours(simRes.Summary.AvgJCT), metrics.Hours(repRes.Summary.AvgJCT),
			fmt.Sprintf("%+.1f%%", 100*dJCT),
			fmt.Sprintf("%.0f ex/s", simRes.AvgGoodput),
			fmt.Sprintf("%.0f ex/s", repRes.AvgGoodput),
			fmt.Sprintf("%+.1f%%", 100*dGood),
		})
		o.setUnit(f.name+"/simJCT", "s", simRes.Summary.AvgJCT)
		o.setUnit(f.name+"/replayJCT", "s", repRes.Summary.AvgJCT)
		// The parity deltas hover near zero, where a relative band is
		// meaningless; grant them the absolute band of the parity bar
		// (5% on the standard trace, TestReplayVsSimParity).
		o.setUnit(f.name+"/dJCT", "frac", math.Abs(dJCT))
		o.setTol(f.name+"/dJCT", 0, 0.05)
		o.setUnit(f.name+"/dGoodput", "frac", math.Abs(dGood))
		o.setTol(f.name+"/dGoodput", 0, 0.05)
		o.setUnit(f.name+"/completedDelta", "jobs",
			math.Abs(float64(simRes.Summary.Completed-repRes.Summary.Completed)))
		o.setTol(f.name+"/completedDelta", 0, 2)
	}
	o.Notes = append(o.Notes,
		"replay drives the live testbed control path (Service, reports, runtime.Step) on virtual time")
	return o, nil
}

// relDelta is the signed relative difference of a against base.
func relDelta(a, base float64) float64 {
	if base == 0 {
		return a - base
	}
	return a/base - 1
}
