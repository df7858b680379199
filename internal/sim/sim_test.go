package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/admit"
	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// smallTrace builds a quick trace of small jobs for fast tests.
func smallTrace(seed int64, n int) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	return workload.Generate(rng, workload.Options{Jobs: n, Hours: 0.5})
}

// smallOnly filters a trace to resnet18/neumf jobs so tests finish fast.
func smallOnly(tr workload.Trace) workload.Trace {
	out := workload.Trace{Duration: tr.Duration}
	for _, j := range tr.Jobs {
		if j.Model == "resnet18" || j.Model == "neumf" {
			out.Jobs = append(out.Jobs, j)
		}
	}
	return out
}

func fastCfg(seed int64) Config {
	return Config{
		Nodes:          4,
		GPUsPerNode:    4,
		Tick:           2,
		UseTunedConfig: true,
		MaxTime:        12 * 3600,
		Seed:           seed,
	}
}

func fastPollux(seed int64) sched.Policy {
	return sched.NewPollux(sched.PolluxOptions{Population: 20, Generations: 10}, seed)
}

func TestClusterCompletesSmallTraceAllPolicies(t *testing.T) {
	tr := smallOnly(smallTrace(1, 12))
	if len(tr.Jobs) < 4 {
		t.Skip("trace too small after filtering")
	}
	policies := []sched.Policy{
		fastPollux(1),
		sched.NewOptimus(4),
		sched.NewTiresias(),
	}
	for _, p := range policies {
		t.Run(p.Name(), func(t *testing.T) {
			res := NewCluster(tr, p, fastCfg(1)).Run()
			if res.Summary.Completed != len(tr.Jobs) {
				t.Errorf("%s: completed %d of %d jobs", p.Name(), res.Summary.Completed, len(tr.Jobs))
			}
			if res.Summary.AvgJCT <= 0 {
				t.Errorf("%s: AvgJCT = %v", p.Name(), res.Summary.AvgJCT)
			}
			if res.Summary.AvgEfficiency <= 0 || res.Summary.AvgEfficiency > 1 {
				t.Errorf("%s: AvgEfficiency = %v, want in (0, 1]", p.Name(), res.Summary.AvgEfficiency)
			}
		})
	}
}

// TestClusterNeverOversubscribesGPUs: after every scheduling round of a
// whole run, no node holds more GPUs than it has, summed over every job of
// the trace, and the cluster's running usage totals agree with that sum.
func TestClusterNeverOversubscribesGPUs(t *testing.T) {
	tr := smallOnly(smallTrace(2, 16))
	cfg := fastCfg(2)
	var c *Cluster
	rounds := 0
	cfg.OnRound = func(now float64) {
		rounds++
		if err := testutil.CheckLedger(c.ledger.Capacity(), c.ledger.Usage(), c.ledger.Row, len(c.jobs)); err != nil {
			t.Fatalf("t=%v: %v", now, err)
		}
	}
	c = NewCluster(tr, fastPollux(2), cfg)
	if res := c.Run(); res.Summary.Completed != len(tr.Jobs) {
		t.Errorf("completed %d of %d jobs", res.Summary.Completed, len(tr.Jobs))
	}
	if rounds == 0 {
		t.Error("OnRound never fired")
	}
}

func TestRestartDelayPausesProgress(t *testing.T) {
	tr := smallOnly(smallTrace(3, 8))
	cfg := fastCfg(3)
	c := NewCluster(tr, fastPollux(3), cfg)
	c.restartDelay = 120
	// After the first schedule, all newly allocated jobs must be paused
	// for the restart delay.
	c.now = tr.Jobs[len(tr.Jobs)-1].Submit + 1
	c.submitArrivals()
	c.agentTick()
	c.scheduleTick()
	for _, j := range c.active() {
		if j.Placement.GPUs > 0 && j.RestartUntil < c.now+119 {
			t.Errorf("job %d restartUntil = %v, want >= now+120", j.wj.ID, j.RestartUntil)
		}
	}
	var q eventsim.Queue
	c.refreshPredictions(&q)
	before := make(map[int]float64)
	running := 0
	for _, j := range c.active() {
		before[j.wj.ID] = j.Progress
		if j.rate.good > 0 {
			running++
		}
	}
	if running == 0 {
		t.Fatal("no job has a training rate: nothing could progress")
	}
	c.now += 119
	c.advanceAll()
	for _, j := range c.active() {
		//pollux:floateq-ok progress must be left untouched during the restart pause; any change is a real bug
		if j.Progress != before[j.wj.ID] {
			t.Errorf("job %d progressed during restart delay", j.wj.ID)
		}
	}
}

func TestNoRestartDelayWhenAllocationUnchanged(t *testing.T) {
	tr := smallOnly(smallTrace(4, 6))
	cfg := fastCfg(4)
	c := NewCluster(tr, sched.NewTiresias(), cfg)
	c.now = tr.Duration + 1
	c.submitArrivals()
	c.agentTick()
	c.scheduleTick()
	// Let restart delays elapse, then re-schedule: Tiresias is
	// deterministic, so allocations should be identical and no new
	// delay applied.
	c.now += 200
	c.scheduleTick()
	for _, j := range c.active() {
		if j.Placement.GPUs > 0 && j.RestartUntil > c.now {
			t.Errorf("job %d penalized without reallocation", j.wj.ID)
		}
	}
}

func TestInterferenceSlowdownExtendsJCT(t *testing.T) {
	tr := smallOnly(smallTrace(5, 10))
	if len(tr.Jobs) < 4 {
		t.Skip("trace too small")
	}
	// Avoidance disabled, with and without slowdown.
	mk := func(slow float64, seed int64) float64 {
		cfg := fastCfg(seed)
		cfg.InterferenceSlowdown = slow
		p := sched.NewPollux(sched.PolluxOptions{
			Population: 20, Generations: 10,
			DisableInterferenceAvoidance: true,
		}, seed)
		res := NewCluster(tr, p, cfg).Run()
		return res.Summary.AvgJCT
	}
	base := mk(0, 7)
	slowed := mk(0.5, 7)
	// The GA is stochastic and the slowdown changes its trajectory, so a
	// small apparent improvement is possible on tiny traces; require only
	// that heavy interference does not *meaningfully* speed things up.
	if slowed < 0.9*base {
		t.Errorf("50%% interference sped things up: %v < %v", slowed, base)
	}
}

func TestPolluxBeatsBaselinesOnUserConfiguredJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("slow comparison test")
	}
	// Sec. 5.3.1 direction: with realistic user configs, Pollux's JCT
	// advantage over Tiresias is large.
	tr := smallOnly(smallTrace(11, 20))
	cfg := fastCfg(11)
	cfg.UseTunedConfig = false

	pollux := NewCluster(tr, fastPollux(11), cfg).Run()
	tiresias := NewCluster(tr, sched.NewTiresias(), cfg).Run()
	if pollux.Summary.Completed < len(tr.Jobs) {
		t.Fatalf("pollux completed %d of %d", pollux.Summary.Completed, len(tr.Jobs))
	}
	if pollux.Summary.AvgJCT >= tiresias.Summary.AvgJCT {
		t.Errorf("pollux AvgJCT %v not better than tiresias %v",
			pollux.Summary.AvgJCT, tiresias.Summary.AvgJCT)
	}
}

func TestRunSeedsAverages(t *testing.T) {
	cfg := fastCfg(0)
	sum := RunSeeds([]int64{1, 2}, func(rng *rand.Rand) workload.Trace {
		return smallOnly(workload.Generate(rng, workload.Options{Jobs: 8, Hours: 0.25}))
	}, func(seed int64) sched.Policy {
		return fastPollux(seed)
	}, cfg)
	if sum.Total == 0 {
		t.Fatal("no jobs simulated")
	}
	if sum.AvgJCT <= 0 {
		t.Errorf("averaged AvgJCT = %v", sum.AvgJCT)
	}
}

// TestRunSeedsParallelMatchesSerial pins the multi-seed fan-out's
// contract: per-seed runs are independent and deterministic, and summaries
// reduce in seed order, so concurrent fan-out (up to GOMAXPROCS seeds)
// reproduces the serial run at GOMAXPROCS 1 exactly — every float64
// included.
func TestRunSeedsParallelMatchesSerial(t *testing.T) {
	seeds := []int64{1, 2, 3}
	t.Run("pollux", func(t *testing.T) {
		gen := func(rng *rand.Rand) workload.Trace {
			return smallOnly(workload.Generate(rng, workload.Options{Jobs: 8, Hours: 0.25}))
		}
		run := func(procs int) metrics.Summary {
			testutil.SetProcs(t, procs)
			return RunSeeds(seeds, gen, fastPollux, fastCfg(0))
		}
		serial := run(1)
		parallel := run(4)
		if serial != parallel {
			t.Errorf("parallel RunSeeds diverged from serial:\n%+v\n%+v", parallel, serial)
		}
		if serial.AvgJCT <= 0 {
			t.Errorf("AvgJCT = %v, want > 0", serial.AvgJCT)
		}
	})
	// Every seed's cluster builds its front end from the one *admit.Options
	// the caller shares, quota map included, so nothing may write through
	// it. Not skipped under -short: the race job is what sees a concurrent
	// write.
	t.Run("frontend", func(t *testing.T) {
		gen := func(rng *rand.Rand) workload.Trace {
			return smallOnly(workload.Generate(rng, workload.Options{
				Hours:   0.25,
				Tenants: []workload.TenantSpec{{Name: "prod", Jobs: 6, SLOHours: 1}, {Name: "batch", Jobs: 8}},
			}))
		}
		opts := &admit.Options{Admission: admit.AdmitQuota, Quotas: map[string]int{"batch": 2}, Priority: admit.PrioritySLO}
		run := func(procs int) []Result {
			testutil.SetProcs(t, procs)
			cfg := fastCfg(0)
			cfg.FrontEnd = opts
			return RunSeedsFull(seeds, gen, func(int64) sched.Policy { return sched.NewTiresias() }, cfg)
		}
		serial := run(1)
		parallel := run(2)
		if !reflect.DeepEqual(serial, parallel) {
			t.Error("parallel RunSeedsFull diverged from serial under a shared front end")
		}
		rejected := 0
		for _, res := range serial {
			for _, d := range res.Admissions {
				if !d.Admitted {
					rejected++
				}
			}
		}
		if rejected == 0 {
			t.Error("the quota rejected nothing: the front end is not exercised")
		}
		want := admit.Options{Admission: admit.AdmitQuota, Quotas: map[string]int{"batch": 2}, Priority: admit.PrioritySLO}
		if !reflect.DeepEqual(*opts, want) {
			t.Errorf("caller's front-end options were written: %+v", *opts)
		}
	})
}

func TestJobStateProgressAccounting(t *testing.T) {
	tr := smallOnly(smallTrace(6, 6))
	cfg := fastCfg(6)
	res := NewCluster(tr, fastPollux(6), cfg).Run()
	for i, r := range res.Records {
		if r.Finish > 0 && r.Finish <= r.Submit {
			t.Errorf("job %d finished (%v) before submission (%v)", i, r.Finish, r.Submit)
		}
	}
}

// specFor resolves a zoo model by name for tests.
func specFor(name string) *models.Spec {
	return models.ByName(name)
}

// TestRefitWorkersDeterminism is the contract the two-phase agentTick
// must keep: fanning the per-round agent refits over any worker count
// produces the bit-identical Result — summaries, per-job records, and the
// full event log — because the noise-scale rng draws stay on the
// simulation goroutine and fits draw no randomness.
func TestRefitWorkersDeterminism(t *testing.T) {
	tr := smallOnly(smallTrace(3, 14))
	if len(tr.Jobs) < 4 {
		t.Skip("trace too small after filtering")
	}
	t.Run("event", func(t *testing.T) {
		run := func(workers int) Result {
			cfg := fastCfg(5)
			cfg.LogEvents = true
			c := NewCluster(tr, fastPollux(5), cfg)
			c.refitWorkers = workers
			return c.Run()
		}
		base := run(1)
		for _, w := range []int{2, 8} {
			if got := run(w); !reflect.DeepEqual(base, got) {
				t.Fatalf("refitWorkers=%d Result differs from refitWorkers=1", w)
			}
		}
	})
}
