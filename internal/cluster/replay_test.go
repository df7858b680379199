package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/admit"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallTrace keeps only resnet18/neumf jobs of a generated trace so
// replay tests finish fast, mirroring the sim package's test helper.
func smallTrace(seed int64, n int) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := workload.Generate(rng, workload.Options{Jobs: n, Hours: 0.5})
	out := workload.Trace{Duration: tr.Duration}
	for _, j := range tr.Jobs {
		if j.Model == "resnet18" || j.Model == "neumf" {
			out.Jobs = append(out.Jobs, j)
		}
	}
	return out
}

func smallReplayCfg(seed int64) ReplayConfig {
	return ReplayConfig{
		Nodes: 4, GPUsPerNode: 4, UseTunedConfig: true,
		MaxTime: 12 * 3600, Seed: seed,
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a - b)
	}
	return math.Abs(a/b - 1)
}

// TestReplayDeterminism: replay runs entirely on virtual time, so two
// runs with the same seed must produce bit-identical results — the
// property the old wall-clock trainer loop could never offer.
func TestReplayDeterminism(t *testing.T) {
	tr := smallTrace(3, 10)
	if len(tr.Jobs) < 3 {
		t.Skip("trace too small after filtering")
	}
	run := func() sim.Result {
		p := sched.NewPollux(sched.PolluxOptions{Population: 15, Generations: 8}, 3)
		res, err := Replay(tr, p, smallReplayCfg(3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replay not reproducible:\n%+v\nvs\n%+v", a, b)
	}
	if a.Summary.Completed == 0 {
		t.Error("no jobs completed")
	}
}

// TestReplayTransportParity: the in-process transport and the real
// net/rpc loopback socket must produce bit-identical replays — the RPC
// layer is marshaling, not semantics.
func TestReplayTransportParity(t *testing.T) {
	tr := smallTrace(5, 8)
	if len(tr.Jobs) < 2 {
		t.Skip("trace too small after filtering")
	}
	run := func(overRPC bool) sim.Result {
		cfg := smallReplayCfg(5)
		cfg.OverRPC = overRPC
		res, err := Replay(tr, sched.NewTiresias(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	local, rpc := run(false), run(true)
	if !reflect.DeepEqual(local, rpc) {
		t.Errorf("transports diverge:\nlocal %+v\nrpc   %+v", local, rpc)
	}
}

// TestReplayVsSimParitySmallShort is the -short replay parity smoke: a
// small trace through the replay engine vs the sim event engine.
func TestReplayVsSimParitySmallShort(t *testing.T) {
	tr := smallTrace(9, 10)
	if len(tr.Jobs) < 3 {
		t.Skip("trace too small after filtering")
	}
	simRes := sim.NewCluster(tr, sched.NewTiresias(), sim.Config{
		Nodes: 4, GPUsPerNode: 4, Tick: 2, UseTunedConfig: true,
		MaxTime: 12 * 3600, Seed: 9,
	}).Run()
	repRes, err := Replay(tr, sched.NewTiresias(), smallReplayCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Summary.Completed != repRes.Summary.Completed {
		t.Fatalf("completed: sim %d vs replay %d",
			simRes.Summary.Completed, repRes.Summary.Completed)
	}
	if d := relDiff(repRes.Summary.AvgJCT, simRes.Summary.AvgJCT); d > 0.05 {
		t.Errorf("avg JCT diverges %.1f%%: sim %v vs replay %v",
			100*d, simRes.Summary.AvgJCT, repRes.Summary.AvgJCT)
	}
}

// TestReplayVsSimParity: the replay engine must reproduce the simulator
// on the standard 16-node trace — same semantics reached through the
// live control path (Service, reports, runtime.Step) instead of the
// simulator's in-memory jobs. Like the tick-vs-event check, the engines
// draw different rng sequences (per-trainer rngs, 5 s profiling steps),
// so metrics agree statistically; the bar is 5% on JCT and goodput, on the
// mean over config and policy seeds 1–4. One seed is one draw from the
// spread between two trajectories: under Pollux the engines were 0.2–1.8%
// apart on JCT per seed while every refit crawled a little way from its warm
// start, and are 1.0–4.3% apart with PR 17's fit, which converges (goodput
// up to 3.3% and 4.2%) — with the means of the two engines 0.4% and 0.9%
// apart (EXPERIMENTS.md, "θsys fit in scaled variables and log space").
func TestReplayVsSimParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross-engine comparison")
	}
	rng := rand.New(rand.NewSource(1))
	tr := workload.Generate(rng, workload.Options{
		Jobs: 40, Hours: 2, GPUsPerNode: 4, MaxGPUs: 64,
	})
	policies := map[string]func(seed int64) sched.Policy{
		"pollux": func(seed int64) sched.Policy {
			return sched.NewPollux(sched.PolluxOptions{Population: 20, Generations: 10}, seed)
		},
		"optimus":  func(seed int64) sched.Policy { return sched.NewOptimus(4) },
		"tiresias": func(seed int64) sched.Policy { return sched.NewTiresias() },
	}
	const tol = 0.05
	seeds := []int64{1, 2, 3, 4}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			var simJCT, repJCT, simGoodput, repGoodput, simEff, repEff float64
			for _, seed := range seeds {
				simRes := sim.NewCluster(tr, mk(seed), sim.Config{
					Nodes: 16, GPUsPerNode: 4, Tick: 1,
					UseTunedConfig: true, Seed: seed,
				}).Run()
				repRes, err := Replay(tr, mk(seed), ReplayConfig{
					Nodes: 16, GPUsPerNode: 4, UseTunedConfig: true, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				if simRes.Summary.Completed != repRes.Summary.Completed {
					t.Errorf("seed %d completed: sim %d vs replay %d", seed,
						simRes.Summary.Completed, repRes.Summary.Completed)
				}
				t.Logf("seed %d: avg JCT sim %.1f replay %.1f (%+.1f%%), goodput %.1f vs %.1f (%+.1f%%)", seed,
					simRes.Summary.AvgJCT, repRes.Summary.AvgJCT, 100*(repRes.Summary.AvgJCT/simRes.Summary.AvgJCT-1),
					simRes.AvgGoodput, repRes.AvgGoodput, 100*(repRes.AvgGoodput/simRes.AvgGoodput-1))
				n := float64(len(seeds))
				simJCT += simRes.Summary.AvgJCT / n
				repJCT += repRes.Summary.AvgJCT / n
				simGoodput += simRes.AvgGoodput / n
				repGoodput += repRes.AvgGoodput / n
				simEff += simRes.Summary.AvgEfficiency / n
				repEff += repRes.Summary.AvgEfficiency / n
			}
			// Logged, not held to tol: replay reports efficiency since it
			// returns a sim.Result; nothing yet says it meets the bar
			// TestEngineParityOnStandardTrace holds tick-vs-event to.
			t.Logf("mean AvgEfficiency: sim %.4f replay %.4f (%+.1f%%)", simEff, repEff, 100*(repEff/simEff-1))
			if d := relDiff(repJCT, simJCT); d > tol {
				t.Errorf("mean avg JCT diverges %.1f%%: sim %v vs replay %v", 100*d, simJCT, repJCT)
			}
			if d := relDiff(repGoodput, simGoodput); d > tol {
				t.Errorf("mean avg goodput diverges %.1f%%: sim %v vs replay %v", 100*d, simGoodput, repGoodput)
			}
		})
	}
}

// tenantTrace generates a small multi-tenant trace (fast models only) for
// the admission parity tests.
func tenantTrace(seed int64) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := workload.Generate(rng, workload.Options{
		Hours: 0.5,
		Tenants: []workload.TenantSpec{
			{Name: "prod", Jobs: 8, SLOHours: 2},
			{Name: "batch", Jobs: 10},
			{Name: "burst", Jobs: 6, SLOHours: 1},
		},
	})
	out := workload.Trace{Duration: tr.Duration}
	for _, j := range tr.Jobs {
		if j.Model == "resnet18" || j.Model == "neumf" {
			out.Jobs = append(out.Jobs, j)
		}
	}
	return out
}

// TestAdmissionParitySimVsReplay is the cross-deployment admission
// parity gate: the same tenant trace, run through the simulator's event
// engine, its tick engine, and the live-testbed replay path, must produce
// IDENTICAL admission decision logs (job, tenant, time, verdict, reason,
// in arrival order) and per-tenant admit/reject counts. Admission is a
// pure function of the trace, never of the engine's clock.
func TestAdmissionParitySimVsReplay(t *testing.T) {
	tr := tenantTrace(11)
	if len(tr.Jobs) < 8 {
		t.Skip("trace too small after filtering")
	}
	feOpts := func() *admit.Options {
		return &admit.Options{
			Admission: admit.AdmitQuota,
			Quotas:    map[string]int{"batch": 4, "burst": 2},
			Priority:  admit.PrioritySLO,
		}
	}

	simCfg := sim.Config{
		Nodes: 4, GPUsPerNode: 4, Tick: 2, UseTunedConfig: true,
		MaxTime: 12 * 3600, Seed: 11, FrontEnd: feOpts(),
	}
	eventRes := sim.NewCluster(tr, sched.NewTiresias(), simCfg).Run()
	tickCfg := simCfg
	tickCfg.Engine = sim.EngineTick
	tickCfg.FrontEnd = feOpts()
	tickRes := sim.NewCluster(tr, sched.NewTiresias(), tickCfg).Run()

	repCfg := smallReplayCfg(11)
	repCfg.FrontEnd = feOpts()
	repRes, err := Replay(tr, sched.NewTiresias(), repCfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(eventRes.Admissions) != len(tr.Jobs) {
		t.Fatalf("event engine logged %d decisions for %d jobs", len(eventRes.Admissions), len(tr.Jobs))
	}
	if !reflect.DeepEqual(eventRes.Admissions, tickRes.Admissions) {
		t.Errorf("event vs tick admission logs differ:\n%v\nvs\n%v",
			eventRes.Admissions, tickRes.Admissions)
	}
	if !reflect.DeepEqual(eventRes.Admissions, repRes.Admissions) {
		t.Errorf("sim vs replay admission logs differ:\n%v\nvs\n%v",
			eventRes.Admissions, repRes.Admissions)
	}

	rejected := 0
	for _, d := range eventRes.Admissions {
		if !d.Admitted {
			rejected++
		}
	}
	if rejected == 0 {
		t.Error("parity trace triggered no rejections; quota too loose to exercise admission")
	}
	for tenant, sts := range eventRes.PerTenant {
		rts, ok := repRes.PerTenant[tenant]
		if !ok {
			t.Errorf("tenant %s missing from replay results", tenant)
			continue
		}
		if sts.Submitted != rts.Submitted || sts.Admitted != rts.Admitted || sts.Rejected != rts.Rejected {
			t.Errorf("tenant %s counters diverge: sim %d/%d/%d vs replay %d/%d/%d",
				tenant, sts.Submitted, sts.Admitted, sts.Rejected,
				rts.Submitted, rts.Admitted, rts.Rejected)
		}
	}
}
