package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Diurnal64 is a scale exhibit beyond the paper's evaluation: a 64-node
// (256-GPU) cluster serving a multi-day trace whose submissions follow an
// inhomogeneous Poisson process with the 24-hour DayCycle diurnal rate —
// the workload shape of a production cluster rather than the paper's
// single 8-hour window. It became tractable once the event engine made
// simulated time cheap and the parallel GA made scheduling rounds cheap;
// the expected load is 4×Scale.Jobs submissions per day over Scale.Days
// days, so quiet nights drain the queue that afternoon peaks build up.
//
// Optimus is omitted: its oracle needs per-job remaining-work bookkeeping
// that adds nothing to the scale story, and the Pollux-vs-Tiresias gap is
// the paper's headline contrast.
func Diurnal64(sc Scale) Outcome {
	days := sc.Days
	if days <= 0 {
		days = 2
	}
	const nodes = 64
	perNode := sc.GPUsPerNode
	if perNode <= 0 {
		perNode = 4
	}
	hours := days * 24
	jobsPerDay := 4 * sc.Jobs
	expJobs := int(float64(jobsPerDay)*days + 0.5)
	seeds := sc.Seeds
	if len(seeds) > 2 {
		seeds = seeds[:2] // multi-day runs are long; two traces suffice
	}

	o := Outcome{
		ID:    "diurnal64",
		Title: fmt.Sprintf("64-node cluster, %.1f-day diurnal Poisson trace (~%d jobs)", days, expJobs),
		Header: []string{
			"policy", "avg JCT", "p99 JCT", "makespan", "goodput (ex/s)", "completed",
		},
		Policies: []string{"Pollux", "Tiresias+TunedJobs"},
		Seeds:    seeds,
		RelTol:   simRelTol,
	}

	genTrace := func(rng *rand.Rand) workload.Trace {
		return workload.Generate(rng, workload.Options{
			Jobs: expJobs, Hours: hours,
			GPUsPerNode: perNode, MaxGPUs: nodes * perNode / 4,
			Poisson: true,
		})
	}
	cfg := sc.simConfig()
	cfg.Nodes, cfg.GPUsPerNode = nodes, perNode
	// A one-day drain past the submission window bounds the run.
	cfg.MaxTime = (days + 1) * 24 * 3600

	for _, f := range []policyFactory{sc.pollux(sched.PolluxOptions{}), tiresias} {
		sum := sim.RunSeeds(seeds, genTrace, f.make, cfg)
		o.Rows = append(o.Rows, []string{
			f.name,
			metrics.Hours(sum.AvgJCT), metrics.Hours(sum.P99JCT), metrics.Hours(sum.Makespan),
			fmt.Sprintf("%.0f", sum.AvgGoodputX),
			fmt.Sprintf("%d/%d", sum.Completed, sum.Total),
		})
		o.setUnit(f.name+"/avgJCT", "s", sum.AvgJCT)
		o.setUnit(f.name+"/p99JCT", "s", sum.P99JCT)
		o.setUnit(f.name+"/makespan", "s", sum.Makespan)
		o.setUnit(f.name+"/goodput", "ex/s", sum.AvgGoodputX)
		o.setUnit(f.name+"/completed", "jobs", float64(sum.Completed))
		o.setUnit(f.name+"/total", "jobs", float64(sum.Total))
	}
	// Configuration echoes: exact by construction, so gate them exactly —
	// a drift here means the exhibit's shape changed, not its results.
	o.setUnit("days", "days", days)
	o.setTol("days", 0, 0)
	o.setUnit("expectedJobs", "jobs", float64(expJobs))
	o.setTol("expectedJobs", 0, 0)
	o.Notes = append(o.Notes, fmt.Sprintf(
		"inhomogeneous Poisson arrivals, 24h cycle peak/trough = 3.0, %d nodes x %d GPUs, %d seed(s)",
		nodes, perNode, len(seeds)))
	return o
}
