// Scheduler comparison: Pollux vs Optimus+Oracle vs Tiresias+TunedJobs.
//
// This example reproduces a small-scale version of the paper's Table 2
// comparison: a synthetic workload sampled per Sec. 5.1 is replayed
// through the trace-driven cluster simulator under each of the three
// scheduling policies, and the resulting job-completion-time statistics
// are printed side by side.
//
// Run with: go run ./examples/scheduler-comparison
//
// The default shape (40 jobs over 2 h on 8 nodes) finishes in seconds;
// pass -scale quick or -scale full to run the shared experiment presets
// instead (internal/cliutil). GOMAXPROCS bounds the GA's and the refits'
// parallelism; results are identical at any value.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/cliutil"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var sweep cliutil.Sweep
	sweep.Register(flag.CommandLine, "")
	flag.Parse()

	// The example's own shape, overridden by -scale when given.
	jobs, hours, nodes, gpus, tick := 40, 2.0, 8, 4, 2.0
	pop, gens := 30, 15
	if sweep.ScaleName != "" {
		sc, err := sweep.Scale()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		jobs, hours, nodes, gpus, tick = sc.Jobs, sc.Hours, sc.Nodes, sc.GPUsPerNode, sc.Tick
		pop, gens = sc.PolluxPop, sc.PolluxGens
	}
	const seed = 7

	rng := rand.New(rand.NewSource(seed))
	trace := workload.Generate(rng, workload.Options{
		Jobs: jobs, Hours: hours, GPUsPerNode: gpus, MaxGPUs: nodes * gpus,
	})
	fmt.Printf("workload: %d jobs over %.0fh on %d nodes x %d GPUs (ideally-tuned configs)\n\n",
		jobs, hours, nodes, gpus)

	policies := []struct {
		label string
		p     sched.Policy
	}{
		{"Pollux", sched.NewPollux(sched.PolluxOptions{Population: pop, Generations: gens}, seed)},
		{"Optimus+Oracle", sched.NewOptimus(gpus)},
		{"Tiresias+TunedJobs", sched.NewTiresias()},
	}

	var rows [][]string
	var polluxJCT float64
	for _, pol := range policies {
		cfg := sim.Config{
			Nodes: nodes, GPUsPerNode: gpus, Tick: tick,
			UseTunedConfig: true, Seed: seed,
		}
		res := sim.NewCluster(trace, pol.p, cfg).Run()
		s := res.Summary
		if pol.label == "Pollux" {
			polluxJCT = s.AvgJCT
		}
		rows = append(rows, []string{
			pol.label,
			fmt.Sprintf("%d/%d", s.Completed, s.Total),
			metrics.Hours(s.AvgJCT),
			metrics.Hours(s.P99JCT),
			metrics.Hours(s.Makespan),
			fmt.Sprintf("%.0f%%", 100*s.AvgEfficiency),
			fmt.Sprintf("%.2fx", s.AvgJCT/polluxJCT),
		})
	}
	fmt.Print(metrics.Table(
		[]string{"policy", "done", "avg JCT", "p99 JCT", "makespan", "stat.eff", "vs Pollux"},
		rows))
	fmt.Println("\npaper (testbed, Table 2): Pollux 1.2h avg vs Optimus+Oracle 1.6h vs Tiresias 2.4h")
}
