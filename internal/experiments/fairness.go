package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/admit"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fairness is a multi-tenant serving exhibit beyond the paper's
// evaluation: three tenants share one contended cluster behind the
// internal/admit front end, and the exhibit reports what each tenant
// experiences — JCT, goodput, queue depth, admission and rejection
// counts, SLO attainment — under Pollux vs Tiresias+TunedJobs.
//
// The tenant mix is the classic serving split. "prod" carries a tight
// SLO and an unlimited quota; "batch" submits the same volume but holds
// a quota of half its jobs, so the quota stage visibly rejects the
// overflow; "burst" is a small bursty tenant with a one-hour arrival
// spike, an SLO, and a tiny quota. Admission runs the per-tenant quota
// policy and the priority stage orders each scheduling round's snapshot
// by earliest deadline, so the exhibit shows both stages earning their
// keep: rejection counts are a pure function of the trace (identical
// across policies and gated exactly), while JCT/goodput splits show how
// much of prod's SLO attainment comes from the scheduler vs the front
// end.
func Fairness(sc Scale) Outcome {
	seeds := sc.Seeds
	if len(seeds) > 2 {
		seeds = seeds[:2] // front-end accounting is deterministic; two traces suffice
	}
	// Tenant shares of the trace: 40% prod, 40% batch, 20% burst, at
	// least one job each so short smokes still exercise every tenant.
	prodJobs := max(sc.Jobs*2/5, 1)
	batchJobs := max(sc.Jobs*2/5, 1)
	burstJobs := max(sc.Jobs-prodJobs-batchJobs, 1)
	batchQuota := max(batchJobs/2, 1)
	burstQuota := max(burstJobs/3, 1)
	tenants := []workload.TenantSpec{
		{Name: "prod", Jobs: prodJobs, SLOHours: sc.Hours},
		{Name: "batch", Jobs: batchJobs},
		{Name: "burst", Jobs: burstJobs, SLOHours: sc.Hours / 2,
			// All burst arrivals land in the first hour of the window.
			Cycle: []float64{1, 0},
		},
	}
	feOpts := &admit.Options{
		Admission: admit.AdmitQuota,
		Quotas:    map[string]int{"batch": batchQuota, "burst": burstQuota},
		Priority:  admit.PrioritySLO,
	}

	o := Outcome{
		ID: "fairness",
		Title: fmt.Sprintf("Multi-tenant fairness under admission control (%d prod / %d batch / %d burst jobs)",
			prodJobs, batchJobs, burstJobs),
		Header: []string{
			"policy", "tenant", "avg JCT", "goodput (ex/s)", "queue depth", "admitted", "rejected", "SLO met",
		},
		Policies: []string{"Pollux", "Tiresias+TunedJobs"},
		Seeds:    seeds,
		RelTol:   simRelTol,
	}

	genTrace := func(rng *rand.Rand) workload.Trace {
		return workload.Generate(rng, workload.Options{
			Hours:       sc.Hours,
			GPUsPerNode: sc.GPUsPerNode, MaxGPUs: sc.Nodes * sc.GPUsPerNode,
			Tenants: tenants,
		})
	}
	cfg := sc.simConfig()
	cfg.FrontEnd = feOpts

	for _, f := range []policyFactory{sc.pollux(sched.PolluxOptions{}), tiresias} {
		full := sim.RunSeedsFull(seeds, genTrace, f.make, cfg)
		perRun := make([]map[string]metrics.TenantSummary, len(full))
		for i, res := range full {
			perRun[i] = res.PerTenant
		}
		avg := metrics.AverageTenants(perRun)
		names := make([]string, 0, len(avg))
		for name := range avg {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ts := avg[name]
			o.Rows = append(o.Rows, []string{
				f.name, name,
				metrics.Hours(ts.Summary.AvgJCT),
				fmt.Sprintf("%.0f", ts.AvgGoodput),
				fmt.Sprintf("%.1f", ts.AvgQueueDepth),
				fmt.Sprintf("%d/%d", ts.Admitted, ts.Submitted),
				fmt.Sprintf("%d", ts.Rejected),
				fmt.Sprintf("%d/%d", ts.SLOMet, ts.SLOJobs),
			})
			key := f.name + "/" + name
			o.setUnit(key+"/avgJCT", "s", ts.Summary.AvgJCT)
			o.setUnit(key+"/goodput", "ex/s", ts.AvgGoodput)
			// Queue depths hover near zero on drained traces; an absolute
			// band is the right shape on top of the relative one.
			o.setUnit(key+"/queueDepth", "jobs", ts.AvgQueueDepth)
			o.setTol(key+"/queueDepth", simRelTol, 0.5)
			// Admission is a pure function of the trace — identical across
			// policies and engines (see the cross-deployment parity test) —
			// so any drift in these counts is a front-end behavior change.
			o.setUnit(key+"/submitted", "jobs", float64(ts.Submitted))
			o.setTol(key+"/submitted", 0, 0)
			o.setUnit(key+"/admitted", "jobs", float64(ts.Admitted))
			o.setTol(key+"/admitted", 0, 0)
			o.setUnit(key+"/rejected", "jobs", float64(ts.Rejected))
			o.setTol(key+"/rejected", 0, 0)
			// SLO attainment is a count near the scheduling margin; grant
			// it a one-job absolute band per seed.
			o.setUnit(key+"/sloMet", "jobs", float64(ts.SLOMet))
			o.setTol(key+"/sloMet", 0, float64(len(seeds)))
			o.setUnit(key+"/sloJobs", "jobs", float64(ts.SLOJobs))
			o.setTol(key+"/sloJobs", 0, 0)
		}
	}
	// Configuration echoes: exact by construction.
	o.setUnit("batchQuota", "jobs", float64(batchQuota))
	o.setTol("batchQuota", 0, 0)
	o.setUnit("burstQuota", "jobs", float64(burstQuota))
	o.setTol("burstQuota", 0, 0)
	o.Notes = append(o.Notes, fmt.Sprintf(
		"quota admission (batch<=%d, burst<=%d jobs) + EDF priority; prod SLO %.1fh, burst SLO %.1fh in a 1h spike; %d seed(s)",
		batchQuota, burstQuota, sc.Hours, sc.Hours/2, len(seeds)))
	return o
}
