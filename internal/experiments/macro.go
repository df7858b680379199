package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// policyFactory builds fresh policies per seed (policies carry state).
type policyFactory struct {
	name string
	make func(seed int64) sched.Policy
}

// pollux returns the factory of Pollux schedulers at the scale's GA budget,
// with the exhibit's own options on top.
func (sc Scale) pollux(opts sched.PolluxOptions) policyFactory {
	opts.Population, opts.Generations = sc.PolluxPop, sc.PolluxGens
	return policyFactory{"Pollux", func(seed int64) sched.Policy {
		return sched.NewPollux(opts, seed)
	}}
}

var tiresias = policyFactory{"Tiresias+TunedJobs", func(seed int64) sched.Policy {
	return sched.NewTiresias()
}}

func (sc Scale) factories() []policyFactory {
	return []policyFactory{
		sc.pollux(sched.PolluxOptions{}),
		{"Optimus+Oracle", func(seed int64) sched.Policy {
			return sched.NewOptimus(sc.GPUsPerNode)
		}},
		tiresias,
	}
}

// policyNames lists the factories' display names, for Outcome metadata.
func (sc Scale) policyNames() []string {
	fs := sc.factories()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.name
	}
	return names
}

func (sc Scale) genTrace(jobs int) func(rng *rand.Rand) workload.Trace {
	return func(rng *rand.Rand) workload.Trace {
		return workload.Generate(rng, workload.Options{
			Jobs: jobs, Hours: sc.Hours,
			GPUsPerNode: sc.GPUsPerNode, MaxGPUs: sc.Nodes * sc.GPUsPerNode,
		})
	}
}

func (sc Scale) simConfig() sim.Config {
	return sim.Config{
		Nodes: sc.Nodes, GPUsPerNode: sc.GPUsPerNode,
		Tick: sc.Tick, UseTunedConfig: true,
	}
}

// Table2 reproduces Table 2: average and 99th-percentile JCT plus makespan
// for Pollux vs Optimus+Oracle vs Tiresias+TunedJobs, on ideally-tuned
// jobs, together with the Sec. 5.2.1 statistical-efficiency and relative
// throughput/goodput comparisons.
func Table2(sc Scale) Outcome {
	o := Outcome{
		Title:    "Scheduler comparison on ideally-tuned jobs",
		Header:   []string{"policy", "avg JCT", "p99 JCT", "makespan", "stat.eff", "tput (ex/s)", "goodput (ex/s)"},
		Policies: sc.policyNames(),
		Seeds:    sc.Seeds,
		RelTol:   simRelTol,
	}
	var polluxJCT float64
	for _, f := range sc.factories() {
		sum := sim.RunSeeds(sc.Seeds, sc.genTrace(sc.Jobs), f.make, sc.simConfig())
		o.Rows = append(o.Rows, []string{
			f.name,
			metrics.Hours(sum.AvgJCT), metrics.Hours(sum.P99JCT), metrics.Hours(sum.Makespan),
			fmt.Sprintf("%.0f%%", 100*sum.AvgEfficiency),
			fmt.Sprintf("%.0f", sum.AvgThroughputX),
			fmt.Sprintf("%.0f", sum.AvgGoodputX),
		})
		o.setUnit(f.name+"/avgJCT", "s", sum.AvgJCT)
		o.setUnit(f.name+"/p99JCT", "s", sum.P99JCT)
		o.setUnit(f.name+"/makespan", "s", sum.Makespan)
		o.setUnit(f.name+"/eff", "frac", sum.AvgEfficiency)
		o.setUnit(f.name+"/tput", "ex/s", sum.AvgThroughputX)
		o.setUnit(f.name+"/goodput", "ex/s", sum.AvgGoodputX)
		if f.name == "Pollux" {
			polluxJCT = sum.AvgJCT
		}
	}
	vsOptimus := 1 - polluxJCT/o.Values["Optimus+Oracle/avgJCT"]
	vsTiresias := 1 - polluxJCT/o.Values["Tiresias+TunedJobs/avgJCT"]
	o.setUnit("reductionVsOptimus", "frac", vsOptimus)
	o.setUnit("reductionVsTiresias", "frac", vsTiresias)
	o.Notes = append(o.Notes, fmt.Sprintf(
		"Pollux avg-JCT reduction: %.0f%% vs Optimus+Oracle, %.0f%% vs Tiresias+TunedJobs (paper sim: 26%% and 40%%)",
		100*vsOptimus, 100*vsTiresias))
	return o
}

// Fig7 reproduces Fig. 7: normalized average JCT as the share of
// realistically (user-)configured jobs grows from 0% to 100%.
func Fig7(sc Scale) Outcome {
	o := Outcome{
		Title:    "Normalized avg JCT vs ratio of user-configured jobs",
		Header:   []string{"user-configured", "Pollux", "Optimus+Oracle", "Tiresias"},
		Policies: sc.policyNames(),
		Seeds:    sc.Seeds,
		RelTol:   simRelTol,
	}
	ratios := []float64{0, 1.0 / 3, 2.0 / 3, 1}
	for _, userRatio := range ratios {
		cfg := sc.simConfig()
		switch userRatio {
		case 0:
			cfg.UseTunedConfig = true
		case 1:
			cfg.UseTunedConfig = false
		default:
			cfg.TunedFraction = 1 - userRatio
		}
		row := []string{fmt.Sprintf("%.0f%%", 100*userRatio)}
		var pollux float64
		for _, f := range sc.factories() {
			sum := sim.RunSeeds(sc.Seeds, sc.genTrace(sc.Jobs), f.make, cfg)
			if f.name == "Pollux" {
				pollux = sum.AvgJCT
			}
			norm := sum.AvgJCT / pollux
			row = append(row, fmt.Sprintf("%.2f", norm))
			o.setUnit(fmt.Sprintf("%s/%.0f", f.name, 100*userRatio), "x", norm)
			o.setUnit(fmt.Sprintf("%s/abs/%.0f", f.name, 100*userRatio), "s", sum.AvgJCT)
		}
		o.Rows = append(o.Rows, row)
	}
	o.Notes = append(o.Notes,
		"paper: Pollux is unaffected by user configs; Optimus degrades to 2.1x, Tiresias to 3.3x at 100%")
	return o
}

// Fig8 reproduces Fig. 8: average JCT under increasing job load.
func Fig8(sc Scale) Outcome {
	o := Outcome{
		Title:    "Avg JCT vs relative job load",
		Header:   []string{"load", "Pollux", "Optimus+Oracle", "Tiresias+TunedJobs"},
		Policies: sc.policyNames(),
		Seeds:    sc.Seeds,
		RelTol:   simRelTol,
	}
	for _, load := range []float64{0.5, 1.0, 1.5, 2.0} {
		jobs := int(float64(sc.Jobs)*load + 0.5)
		row := []string{fmt.Sprintf("%.1fx", load)}
		for _, f := range sc.factories() {
			sum := sim.RunSeeds(sc.Seeds, sc.genTrace(jobs), f.make, sc.simConfig())
			row = append(row, metrics.Hours(sum.AvgJCT))
			o.setUnit(fmt.Sprintf("%s/%.1f", f.name, load), "s", sum.AvgJCT)
		}
		o.Rows = append(o.Rows, row)
	}
	for _, f := range sc.factories() {
		ratio := o.Values[fmt.Sprintf("%s/2.0", f.name)] / o.Values[fmt.Sprintf("%s/0.5", f.name)]
		o.setUnit(f.name+"/degradation", "x", ratio)
	}
	o.Notes = append(o.Notes,
		"paper: at 2x load Pollux degrades 1.8x vs 2.0x (Optimus) and 2.6x (Tiresias); advantage widens with load")
	return o
}

// Table3 reproduces Table 3: the effect of the job-weight decay λ
// (Eqn. 16) on Pollux JCT percentiles, relative to λ = 0.
func Table3(sc Scale) Outcome {
	o := Outcome{
		Title:    "Job-weight decay λ (relative to λ=0)",
		Header:   []string{"lambda", "avg JCT", "p50 JCT", "p99 JCT"},
		Policies: []string{"Pollux"},
		Seeds:    sc.Seeds,
		RelTol:   simRelTol,
	}
	type r struct{ avg, p50, p99 float64 }
	var base r
	for _, lambda := range []float64{0, 0.5, 1.0} {
		sum := sim.RunSeeds(sc.Seeds, sc.genTrace(sc.Jobs),
			sc.pollux(sched.PolluxOptions{Lambda: lambda}).make, sc.simConfig())
		cur := r{sum.AvgJCT, sum.P50JCT, sum.P99JCT}
		if lambda == 0 {
			base = cur
		}
		o.Rows = append(o.Rows, []string{
			fmt.Sprintf("%.1f", lambda),
			fmt.Sprintf("%.2f", cur.avg/base.avg),
			fmt.Sprintf("%.2f", cur.p50/base.p50),
			fmt.Sprintf("%.2f", cur.p99/base.p99),
		})
		o.setUnit(fmt.Sprintf("avg/%.1f", lambda), "x", cur.avg/base.avg)
		o.setUnit(fmt.Sprintf("p50/%.1f", lambda), "x", cur.p50/base.p50)
		o.setUnit(fmt.Sprintf("p99/%.1f", lambda), "x", cur.p99/base.p99)
	}
	o.Notes = append(o.Notes,
		"paper: λ=0.5 improves p50 to 0.77 and avg to 0.95 while p99 degrades slightly (1.05)")
	return o
}

// Fig9 reproduces Fig. 9: average JCT under artificial network
// interference, with PolluxSched's avoidance constraint enabled vs
// disabled.
func Fig9(sc Scale) Outcome {
	o := Outcome{
		Title:    "Interference slowdown: avoidance enabled vs disabled",
		Header:   []string{"slowdown", "avoid on (norm)", "avoid off (norm)"},
		Policies: []string{"Pollux"},
		Seeds:    sc.Seeds,
		RelTol:   simRelTol,
	}
	mk := func(disable bool) func(seed int64) sched.Policy {
		return sc.pollux(sched.PolluxOptions{DisableInterferenceAvoidance: disable}).make
	}
	var baseOn float64
	for _, slow := range []float64{0, 0.25, 0.5} {
		cfg := sc.simConfig()
		cfg.InterferenceSlowdown = slow
		on := sim.RunSeeds(sc.Seeds, sc.genTrace(sc.Jobs), mk(false), cfg)
		off := sim.RunSeeds(sc.Seeds, sc.genTrace(sc.Jobs), mk(true), cfg)
		if slow == 0 {
			baseOn = on.AvgJCT
		}
		o.Rows = append(o.Rows, []string{
			fmt.Sprintf("%.0f%%", 100*slow),
			fmt.Sprintf("%.2f", on.AvgJCT/baseOn),
			fmt.Sprintf("%.2f", off.AvgJCT/baseOn),
		})
		o.setUnit(fmt.Sprintf("on/%.2f", slow), "x", on.AvgJCT/baseOn)
		o.setUnit(fmt.Sprintf("off/%.2f", slow), "x", off.AvgJCT/baseOn)
	}
	o.Notes = append(o.Notes,
		"paper: with avoidance JCT is flat across slowdowns; without it JCT grows to 1.4x at 50% slowdown, and at 0% slowdown disabling avoidance helps only ~2%")
	return o
}
