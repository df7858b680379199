// Package repro's root benchmarks regenerate every table and figure of
// the Pollux paper's evaluation (Sec. 5), one BenchmarkExhibits/<id> per
// exhibit, and time the simulator and the replay on the standard trace.
//
//	go test -run '^$' -bench BenchmarkExhibits -benchmem
//
// Each exhibit runs at quick scale (see internal/experiments.QuickScale),
// logs the regenerated rows, and reports its headline metrics as custom
// benchmark metrics. For paper-scale runs use
// `go run ./cmd/pollux-bench -scale full`, which also checks the paper's
// claims. Paper-vs-measured results are recorded in EXPERIMENTS.md.
package repro

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// BenchmarkExhibits regenerates every exhibit of the registry at quick
// scale, one sub-benchmark per id: each logs its table once and reports
// the exhibit's headline metrics (experiments.Headlines), named as the
// exhibit emits them.
func BenchmarkExhibits(b *testing.B) {
	sc := experiments.QuickScale()
	headlines := experiments.Headlines()
	for _, id := range experiments.All() {
		b.Run(id, func(b *testing.B) {
			var o experiments.Outcome
			for i := 0; i < b.N; i++ {
				var err error
				if o, err = experiments.Run(id, sc); err != nil {
					b.Fatal(err)
				}
			}
			b.Log("\n" + o.String())
			for _, name := range headlines[id] {
				b.ReportMetric(o.Values[name], name)
			}
		})
	}
}

// BenchmarkSchedSerialVsParallel measures the RunSeeds fan-out over 4
// seeds (paper-style repeated traces) of the standard 16-node Pollux
// experiment setup: seeds/serial runs at GOMAXPROCS 1, seeds/parallel at
// the host's, GOMAXPROCS being the one bound on the program's
// parallelism. The per-simulation speedup, the agent refits' fan-out, is
// BenchmarkAgentTickRefitWorkers/workers/1 against
// BenchmarkSimStandardTrace/pollux. Outputs are bit-identical across both
// legs — the reported avgJCT-s metric makes that visible — so on a
// >= 4-core host the ratio is pure wall-clock speedup.
func BenchmarkSchedSerialVsParallel(b *testing.B) {
	genTrace := func(rng *rand.Rand) workload.Trace {
		return workload.Generate(rng, workload.Options{
			Jobs: 40, Hours: 2, GPUsPerNode: 4, MaxGPUs: 64,
		})
	}
	newPollux := func(seed int64) sched.Policy {
		return sched.NewPollux(sched.PolluxOptions{Population: 20, Generations: 10}, seed)
	}
	cfg := sim.Config{Nodes: 16, GPUsPerNode: 4, Tick: 1, UseTunedConfig: true}
	for _, leg := range []struct {
		name  string
		procs int
	}{{"seeds/serial", 1}, {"seeds/parallel", runtime.GOMAXPROCS(0)}} {
		b.Run(leg.name, func(b *testing.B) {
			testutil.SetProcs(b, leg.procs)
			var sum metrics.Summary
			for i := 0; i < b.N; i++ {
				sum = sim.RunSeeds([]int64{1, 2, 3, 4}, genTrace, newPollux, cfg)
			}
			b.ReportMetric(sum.AvgJCT, "avgJCT-s")
		})
	}
}

// BenchmarkAgentTickRefitWorkers isolates the per-round agent-refit
// fan-out of the two-phase agentTick. Its one leg, workers/1, runs the
// standard 16-node Pollux simulation at GOMAXPROCS 1, refits serial; the
// max leg, refits fanned over all cores, is BenchmarkSimStandardTrace/pollux,
// the same simulation (trace, seed, policy, cluster) at the host's
// GOMAXPROCS. Its GAs score under minScorerCells, so they run inline on
// both and the refits are what the two change. Refits were ~44% of
// diurnal64 CPU, so on an N-core host the ratio approaches the
// per-simulation ceiling of Amdahl's law for that fraction; the reported
// avgJCT-s metric is identical across the two, which is the determinism
// guarantee (rng draws stay on the simulation goroutine; fits draw no
// randomness).
func BenchmarkAgentTickRefitWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := workload.Generate(rng, workload.Options{
		Jobs: 40, Hours: 2, GPUsPerNode: 4, MaxGPUs: 64,
	})
	b.Run("workers/1", func(b *testing.B) {
		testutil.SetProcs(b, 1)
		cfg := sim.Config{
			Nodes: 16, GPUsPerNode: 4, Tick: 1,
			UseTunedConfig: true, Seed: 1,
		}
		var res sim.Result
		for i := 0; i < b.N; i++ {
			pol := sched.NewPollux(sched.PolluxOptions{Population: 20, Generations: 10}, 1)
			res = sim.NewCluster(tr, pol, cfg).Run()
		}
		b.ReportMetric(res.Summary.AvgJCT, "avgJCT-s")
	})
}

// BenchmarkReplayRound measures the unified testbed runtime: the
// standard 16-node trace replayed through the live control path
// (Service, agent reports, runtime.Step scheduling rounds) on virtual
// time, with the in-process transport vs a real loopback net/rpc socket.
// The us/round metric is the cost of one 60-second scheduling round of
// testbed time including all trainer polling between rounds; avgJCT-s is
// identical across transports (the replay determinism guarantee).
func BenchmarkReplayRound(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := workload.Generate(rng, workload.Options{
		Jobs: 40, Hours: 2, GPUsPerNode: 4, MaxGPUs: 64,
	})
	for _, overRPC := range []bool{false, true} {
		name := "local"
		if overRPC {
			name = "rpc"
		}
		b.Run(name, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = cluster.Replay(tr, sched.NewTiresias(), cluster.ReplayConfig{
					Nodes: 16, GPUsPerNode: 4, UseTunedConfig: true,
					Seed: 1, OverRPC: overRPC,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			rounds := res.Summary.Makespan / 60 // one scheduling round per 60 s
			if rounds > 0 {
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/rounds, "us/round")
			}
			b.ReportMetric(res.Summary.AvgJCT, "avgJCT-s")
		})
	}
}

// BenchmarkSimStandardTrace runs the simulator on the standard 16-node
// trace at a 1-second profiling resolution, per policy.
func BenchmarkSimStandardTrace(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := workload.Generate(rng, workload.Options{
		Jobs: 40, Hours: 2, GPUsPerNode: 4, MaxGPUs: 64,
	})
	policies := []struct {
		name string
		make func(seed int64) sched.Policy
	}{
		{"pollux", func(seed int64) sched.Policy {
			return sched.NewPollux(sched.PolluxOptions{Population: 20, Generations: 10}, seed)
		}},
		{"optimus", func(seed int64) sched.Policy { return sched.NewOptimus(4) }},
		{"tiresias", func(seed int64) sched.Policy { return sched.NewTiresias() }},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			cfg := sim.Config{
				Nodes: 16, GPUsPerNode: 4, Tick: 1,
				UseTunedConfig: true, Seed: 1,
			}
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = sim.NewCluster(tr, pol.make(1), cfg).Run()
			}
			b.ReportMetric(res.Summary.AvgJCT, "avgJCT-s")
			b.ReportMetric(res.AvgGoodput, "goodput-ex/s")
		})
	}
}
