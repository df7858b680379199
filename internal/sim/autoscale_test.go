package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sched"
)

// scaledDownImagenet returns a resnet50-like spec with much less total
// work so autoscaling tests complete quickly, keeping the phi trajectory.
func scaledDownImagenet() *models.Spec {
	s := *models.ByName("resnet50")
	s.Epochs = 2 // ~45x less work than the real 90 epochs
	return &s
}

func autoscaleCfg(goodput bool) AutoscaleConfig {
	return AutoscaleConfig{
		GPUsPerNode:       4,
		MinNodes:          1,
		MaxNodes:          16,
		Tick:              2,
		AdaptBatchGoodput: goodput,
		RespectExploreCap: goodput,
		MaxTime:           48 * 3600,
		Seed:              1,
	}
}

func TestAutoscaleGoodputCompletes(t *testing.T) {
	spec := scaledDownImagenet()
	scaler := sched.NewGoodputAutoscaler(1, 16)
	res := RunAutoscale(spec, scaler, autoscaleCfg(true))
	if !res.Completed {
		t.Fatal("goodput autoscaled training did not complete")
	}
	if res.CostNodeSeconds <= 0 {
		t.Error("no cost accounted")
	}
	if len(res.Points) == 0 {
		t.Fatal("no time series recorded")
	}
}

func TestAutoscaleGoodputRampsUp(t *testing.T) {
	spec := scaledDownImagenet()
	scaler := sched.NewGoodputAutoscaler(1, 16)
	res := RunAutoscale(spec, scaler, autoscaleCfg(true))
	if !res.Completed {
		t.Fatal("did not complete")
	}
	// Fig. 10a shape: starts small, ends big.
	first := res.Points[0].Nodes
	last := res.Points[len(res.Points)-1].Nodes
	if first > 4 {
		t.Errorf("goodput scaler started with %d nodes, want small start", first)
	}
	if last <= first {
		t.Errorf("goodput scaler did not ramp: first=%d last=%d", first, last)
	}
}

func TestAutoscaleThroughputJumpsEarly(t *testing.T) {
	spec := scaledDownImagenet()
	scaler := sched.NewThroughputAutoscaler(1, 16, 0.9)
	res := RunAutoscale(spec, scaler, autoscaleCfg(false))
	if !res.Completed {
		t.Fatal("did not complete")
	}
	// Fig. 10a: Or et al. reaches a large size almost immediately and
	// holds it.
	if len(res.Points) < 2 {
		t.Fatal("too few samples")
	}
	early := res.Points[1].Nodes // after the first decisions
	if early < 8 {
		t.Errorf("throughput scaler at %d nodes early, want aggressive scale-out", early)
	}
}

func TestAutoscaleGoodputCheaper(t *testing.T) {
	// The headline Sec. 5.3.3 result: goodput-based autoscaling is
	// substantially cheaper, at a modest completion-time cost.
	spec := scaledDownImagenet()
	good := RunAutoscale(spec, sched.NewGoodputAutoscaler(1, 16), autoscaleCfg(true))
	thr := RunAutoscale(spec, sched.NewThroughputAutoscaler(1, 16, 0.9), autoscaleCfg(false))
	if !good.Completed || !thr.Completed {
		t.Fatal("runs did not complete")
	}
	if good.CostNodeSeconds >= thr.CostNodeSeconds {
		t.Errorf("goodput cost %v not cheaper than throughput cost %v",
			good.CostNodeSeconds, thr.CostNodeSeconds)
	}
	if good.CompletionTime > 2*thr.CompletionTime {
		t.Errorf("goodput completion %v more than 2x throughput %v",
			good.CompletionTime, thr.CompletionTime)
	}
}

func TestAutoscaleEfficiencyHigherForGoodput(t *testing.T) {
	// Fig. 10b: Pollux maintains high statistical efficiency; Or et al.
	// tanks it early with oversized batches.
	spec := scaledDownImagenet()
	good := RunAutoscale(spec, sched.NewGoodputAutoscaler(1, 16), autoscaleCfg(true))
	thr := RunAutoscale(spec, sched.NewThroughputAutoscaler(1, 16, 0.9), autoscaleCfg(false))
	avgEff := func(pts []AutoscalePoint) float64 {
		s := 0.0
		for _, p := range pts {
			s += p.Efficiency
		}
		return s / float64(len(pts))
	}
	ge, te := avgEff(good.Points), avgEff(thr.Points)
	if ge <= te {
		t.Errorf("goodput avg efficiency %v not above throughput %v", ge, te)
	}
	if ge < 0.5 {
		t.Errorf("goodput efficiency %v unexpectedly low", ge)
	}
}

func TestAutoscaleRespectsNodeBounds(t *testing.T) {
	spec := scaledDownImagenet()
	for _, c := range []struct{ cfgMin, cfgMax, lo, hi int }{
		{2, 6, 2, 6},
		// A maximum left unset defaults to 16 but never below the minimum.
		{20, 0, 20, 20},
	} {
		cfg := autoscaleCfg(true)
		cfg.MinNodes, cfg.MaxNodes = c.cfgMin, c.cfgMax
		res := RunAutoscale(spec, sched.NewGoodputAutoscaler(c.lo, c.hi), cfg)
		for _, p := range res.Points {
			if p.Nodes < c.lo || p.Nodes > c.hi {
				t.Errorf("MinNodes %d MaxNodes %d: t=%v nodes=%d outside [%d, %d]",
					c.cfgMin, c.cfgMax, p.Time, p.Nodes, c.lo, c.hi)
			}
		}
	}
}

// TestClampBatch: the two clamp rules agree on a batch too large for the
// placement's memory and differ on one below m0, which single-job
// autoscaling raises to m0 and the cluster cannot run.
func TestClampBatch(t *testing.T) {
	spec := models.ByName("resnet50")
	j := NewJob(spec, nil)
	j.Placement = core.Placement{GPUs: 8, Nodes: 2}
	j.Batch = 1 << 20
	if got, want := j.SingleJobBatch(), 8*spec.MaxBatchPerGPU; got != want {
		t.Errorf("single-job clamp to memory: %d, want %d", got, want)
	}
	if got, want := j.ClusterBatch(), 8*spec.MaxBatchPerGPU; got != want {
		t.Errorf("cluster clamp to memory: %d, want %d", got, want)
	}
	j.Batch = 1
	if got := j.SingleJobBatch(); got != spec.M0 {
		t.Errorf("single-job clamp up to m0: %d, want %d", got, spec.M0)
	}
	if got := j.ClusterBatch(); got != 0 {
		t.Errorf("cluster rule ran a batch below m0 at %d", got)
	}
}
