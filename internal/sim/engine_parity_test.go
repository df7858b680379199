package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The event engine must reproduce the tick engine's results: same
// semantics, different clock. The two draw different random-number
// sequences (the tick engine profiles one observation per tick, the
// event engine one per segment), so metrics agree statistically rather
// than bitwise; the acceptance bar is 5% on the standard 16-node trace,
// on the mean over paritySeeds.

// standardTrace is the paper-shaped 16-node evaluation workload used by
// the cross-engine parity checks.
func standardTrace() workload.Trace {
	rng := rand.New(rand.NewSource(1))
	return workload.Generate(rng, workload.Options{
		Jobs: 40, Hours: 2, GPUsPerNode: 4, MaxGPUs: 64,
	})
}

func parityConfig(engine string, seed int64) Config {
	return Config{
		Nodes: 16, GPUsPerNode: 4, Tick: 1,
		UseTunedConfig: true, Seed: seed, Engine: engine,
	}
}

// paritySeeds are the config and policy seeds the statistical parity checks
// average over. A single seed is one draw from the spread between two
// trajectories, not the agreement of two engines: before PR 17 the checks
// passed at seed 1 only because seed 1 had been drawn (tick vs event under
// Pollux: JCT 5.2% apart at seed 3; full vs incremental goodput 13.2% at
// seed 4), and with PR 17's θsys fit seed 1 itself puts incremental goodput
// 11.0% from full. The means over the four seeds agree before and after
// (tick vs event JCT 2.1% and 2.1%, goodput 2.0% and 3.1%); which seeds sit
// at the edge of a band moves with any change to the fit, because the old
// fit crawled a little way from its warm start at every refit and the new
// one converges (EXPERIMENTS.md, "θsys fit in scaled variables and log
// space").
var paritySeeds = []int64{1, 2, 3, 4}

// parityMeans is the mean over paritySeeds of the metrics parity is judged on.
type parityMeans struct {
	jct, goodput, efficiency, nodeSeconds float64
}

func (m *parityMeans) add(r Result) {
	n := float64(len(paritySeeds))
	m.jct += r.Summary.AvgJCT / n
	m.goodput += r.AvgGoodput / n
	m.efficiency += r.Summary.AvgEfficiency / n
	m.nodeSeconds += r.CostNodeSeconds / n
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a - b)
	}
	return math.Abs(a/b - 1)
}

func TestEngineParityOnStandardTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross-engine comparison")
	}
	tr := standardTrace()
	policies := map[string]func(seed int64) sched.Policy{
		"pollux": func(seed int64) sched.Policy {
			return sched.NewPollux(sched.PolluxOptions{Population: 20, Generations: 10}, seed)
		},
		"optimus":  func(seed int64) sched.Policy { return sched.NewOptimus(4) },
		"tiresias": func(seed int64) sched.Policy { return sched.NewTiresias() },
	}
	const tol = 0.05
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			var tick, event parityMeans
			for _, seed := range paritySeeds {
				tickRes := NewCluster(tr, mk(seed), parityConfig(EngineTick, seed)).Run()
				eventRes := NewCluster(tr, mk(seed), parityConfig(EngineEvent, seed)).Run()
				if tickRes.Summary.Completed != eventRes.Summary.Completed {
					t.Errorf("seed %d completed: tick %d vs event %d", seed, tickRes.Summary.Completed, eventRes.Summary.Completed)
				}
				t.Logf("seed %d: avg JCT tick %.1f event %.1f (%+.1f%%), goodput %.1f vs %.1f (%+.1f%%)", seed,
					tickRes.Summary.AvgJCT, eventRes.Summary.AvgJCT, 100*(eventRes.Summary.AvgJCT/tickRes.Summary.AvgJCT-1),
					tickRes.AvgGoodput, eventRes.AvgGoodput, 100*(eventRes.AvgGoodput/tickRes.AvgGoodput-1))
				tick.add(tickRes)
				event.add(eventRes)
			}
			if d := relDiff(event.jct, tick.jct); d > tol {
				t.Errorf("mean avg JCT diverges %.1f%%: tick %v vs event %v", 100*d, tick.jct, event.jct)
			}
			if d := relDiff(event.goodput, tick.goodput); d > tol {
				t.Errorf("mean avg goodput diverges %.1f%%: tick %v vs event %v", 100*d, tick.goodput, event.goodput)
			}
			if d := relDiff(event.efficiency, tick.efficiency); d > tol {
				t.Errorf("mean avg efficiency diverges %.1f%%: tick %v vs event %v", 100*d, tick.efficiency, event.efficiency)
			}
			if d := relDiff(event.nodeSeconds, tick.nodeSeconds); d > tol {
				t.Errorf("mean node-seconds diverge %.1f%%: tick %v vs event %v", 100*d, tick.nodeSeconds, event.nodeSeconds)
			}
		})
	}
}

// TestEngineParitySmallTraceShort is the -short-friendly parity check: a
// small trace, still comparing both engines end to end.
func TestEngineParitySmallTraceShort(t *testing.T) {
	tr := smallOnly(smallTrace(9, 10))
	if len(tr.Jobs) < 3 {
		t.Skip("trace too small after filtering")
	}
	mkCfg := func(engine string) Config {
		cfg := fastCfg(9)
		cfg.Engine = engine
		return cfg
	}
	tick := NewCluster(tr, sched.NewTiresias(), mkCfg(EngineTick)).Run()
	event := NewCluster(tr, sched.NewTiresias(), mkCfg(EngineEvent)).Run()
	if tick.Summary.Completed != event.Summary.Completed {
		t.Fatalf("completed: tick %d vs event %d", tick.Summary.Completed, event.Summary.Completed)
	}
	if d := relDiff(event.Summary.AvgJCT, tick.Summary.AvgJCT); d > 0.05 {
		t.Errorf("avg JCT diverges %.1f%%: tick %v vs event %v",
			100*d, tick.Summary.AvgJCT, event.Summary.AvgJCT)
	}
}

// TestUnknownEngineRejected: a typo'd engine name must fail loudly, not
// silently select the event engine (which would make e.g. a hand-rolled
// parity check compare the event engine against itself).
func TestUnknownEngineRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Config{Engine: \"ticks\"} did not panic")
		}
	}()
	NewCluster(workload.Trace{}, sched.NewTiresias(), Config{Engine: "ticks"})
}

// TestEventEngineAdmitsBoundaryAlignedArrival: a job whose submit time
// coincides exactly with a scheduling instant must be admitted to that
// round (as in the tick engine), not deferred a full SchedInterval by
// the cluster-before-job event ordering.
func TestEventEngineAdmitsBoundaryAlignedArrival(t *testing.T) {
	tr := workload.Trace{Jobs: []workload.Job{{
		ID: 1, Model: "resnet18", Submit: 60, // exactly the 2nd sched round
		TunedGPUs: 4, TunedBatch: 512, UserGPUs: 4, UserBatch: 512,
	}}}
	cfg := Config{
		Nodes: 4, GPUsPerNode: 4, UseTunedConfig: true,
		Seed: 1, Engine: EngineEvent, LogEvents: true,
	}
	res := NewCluster(tr, sched.NewTiresias(), cfg).Run()
	var submitAt, allocAt float64
	allocAt = -1
	for _, e := range res.Events {
		switch e.Kind {
		case EventSubmit:
			submitAt = e.Time
		case EventAllocate:
			if allocAt < 0 {
				allocAt = e.Time
			}
		}
	}
	if submitAt != 60 {
		t.Fatalf("submit recorded at %v, want 60", submitAt)
	}
	if allocAt != 60 {
		t.Errorf("first allocation at %v, want 60 (same round as the boundary-aligned arrival)", allocAt)
	}
}

// TestEngineParityAutoscaleOverlappingProvisions: with a provisioning delay
// longer than the decision interval, scale-up requests overlap and each
// batch must only join at its own readiness time — the engines' node
// trajectories must still agree.
func TestEngineParityAutoscaleOverlappingProvisions(t *testing.T) {
	spec := parityImagenet()
	run := func(engine string) AutoscaleResult {
		cfg := autoscaleCfg(true)
		cfg.Engine = engine
		cfg.SamplePeriod = 60
		r := newAutoscaleRun(spec, sched.NewGoodputAutoscaler(1, 16), cfg)
		r.provisionDelay = 150 // > SchedInterval: requests overlap
		return r.run()
	}
	tick := run(EngineTick)
	event := run(EngineEvent)
	if !tick.Completed || !event.Completed {
		t.Fatalf("completed: tick=%v event=%v", tick.Completed, event.Completed)
	}
	if d := relDiff(event.CompletionTime, tick.CompletionTime); d > 0.10 {
		t.Errorf("completion time diverges %.1f%%: tick %v vs event %v",
			100*d, tick.CompletionTime, event.CompletionTime)
	}
	if d := relDiff(event.CostNodeSeconds, tick.CostNodeSeconds); d > 0.10 {
		t.Errorf("cost diverges %.1f%%: tick %v vs event %v",
			100*d, tick.CostNodeSeconds, event.CostNodeSeconds)
	}
}

// parityImagenet is the workload for the autoscale parity checks: 4
// shrunk epochs rather than scaledDownImagenet's 2, because a lone
// 2-epoch trajectory is short enough that one differing scaling
// decision swings the cost integral by ~20%; from 4 epochs on the
// engines agree within a few percent.
func parityImagenet() *models.Spec {
	s := *models.ByName("resnet50")
	s.Epochs = 4
	return &s
}

// TestEngineParityAutoscale compares the two single-job autoscaling
// loops. A lone trajectory has no averaging across jobs, so the bar is
// looser (10%) but the qualitative Fig. 10 conclusions must agree.
func TestEngineParityAutoscale(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross-engine comparison")
	}
	spec := parityImagenet()
	run := func(engine string, goodput bool) AutoscaleResult {
		cfg := autoscaleCfg(goodput)
		cfg.Engine = engine
		var scaler sched.Autoscaler
		if goodput {
			scaler = sched.NewGoodputAutoscaler(1, 16)
		} else {
			scaler = sched.NewThroughputAutoscaler(1, 16, 0.9)
		}
		return RunAutoscale(spec, scaler, cfg)
	}
	for _, goodput := range []bool{true, false} {
		tick := run(EngineTick, goodput)
		event := run(EngineEvent, goodput)
		if tick.Completed != event.Completed {
			t.Fatalf("goodput=%v: completed tick=%v event=%v", goodput, tick.Completed, event.Completed)
		}
		if d := relDiff(event.CompletionTime, tick.CompletionTime); d > 0.10 {
			t.Errorf("goodput=%v: completion time diverges %.1f%%: tick %v vs event %v",
				goodput, 100*d, tick.CompletionTime, event.CompletionTime)
		}
		if d := relDiff(event.CostNodeSeconds, tick.CostNodeSeconds); d > 0.10 {
			t.Errorf("goodput=%v: cost diverges %.1f%%: tick %v vs event %v",
				goodput, 100*d, tick.CostNodeSeconds, event.CostNodeSeconds)
		}
	}
}
