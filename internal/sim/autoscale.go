package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sched"
)

// AutoscaleConfig controls the cloud auto-scaling scenario of Sec. 5.3.3:
// one large training job whose node count is adjusted over time.
type AutoscaleConfig struct {
	GPUsPerNode   int     // default 4
	MinNodes      int     // default 1
	MaxNodes      int     // default 16
	Interval      float64 // autoscaler decision period; default 60 s
	AgentInterval float64 // default 30 s
	// ProvisionDelay is how long newly requested nodes take to join;
	// the zero value takes the 60 s default, a negative value means
	// instant provisioning. Releases are immediate.
	ProvisionDelay float64
	// RestartDelay defaults to 30 s; negative means free restarts.
	RestartDelay float64
	// AdaptBatchGoodput selects the goodput-optimal batch each interval
	// (Pollux); when false the throughput-optimal (maximum feasible)
	// batch is used (Or et al.).
	AdaptBatchGoodput bool
	// RespectExploreCap applies Pollux's 2x-lifetime-max exploration cap
	// to the node count (part of PolluxAgent's design, not Or et al.'s).
	RespectExploreCap bool
	// NoiseFrac defaults to 0.05; negative means noise-free profiling.
	NoiseFrac float64
	// Tick is the step of the fixed-step engine and the profiling
	// resolution of the event engine (see sim.Config.Tick).
	Tick    float64
	MaxTime float64
	Seed    int64
	// Engine selects EngineEvent (default) or EngineTick, as in Config.
	Engine string
	// SamplePeriod controls the resolution of the recorded time series;
	// default 300 s.
	SamplePeriod float64
}

func (c *AutoscaleConfig) defaults() {
	if c.GPUsPerNode <= 0 {
		c.GPUsPerNode = 4
	}
	if c.MinNodes <= 0 {
		c.MinNodes = 1
	}
	if c.MaxNodes < c.MinNodes {
		c.MaxNodes = 16
	}
	if c.Interval <= 0 {
		c.Interval = 60
	}
	if c.AgentInterval <= 0 {
		c.AgentInterval = 30
	}
	if c.ProvisionDelay < 0 {
		c.ProvisionDelay = 0
	} else if c.ProvisionDelay == 0 {
		c.ProvisionDelay = 60
	}
	if c.RestartDelay < 0 {
		c.RestartDelay = 0
	} else if c.RestartDelay == 0 {
		c.RestartDelay = 30
	}
	if c.NoiseFrac < 0 {
		c.NoiseFrac = 0
	} else if c.NoiseFrac == 0 {
		c.NoiseFrac = 0.05
	}
	if c.Tick <= 0 {
		c.Tick = 1
	}
	if c.MaxTime <= 0 {
		c.MaxTime = 14 * 24 * 3600
	}
	if c.SamplePeriod <= 0 {
		c.SamplePeriod = 300
	}
	if c.Engine == "" {
		c.Engine = EngineEvent
	}
	if c.Engine != EngineEvent && c.Engine != EngineTick {
		panic(fmt.Sprintf("sim: unknown engine %q (want %q or %q)", c.Engine, EngineEvent, EngineTick))
	}
}

// AutoscalePoint is one sample of the Fig. 10 time series.
type AutoscalePoint struct {
	Time       float64
	Nodes      int // nodes paid for (provisioned + provisioning)
	Batch      int
	Efficiency float64
}

// AutoscaleResult summarizes one autoscaled training run.
type AutoscaleResult struct {
	Points          []AutoscalePoint
	CompletionTime  float64 // seconds to finish training
	CostNodeSeconds float64 // integral of paid nodes over time
	Completed       bool
}

// RunAutoscale trains one job from the model zoo to completion under the
// given autoscaler, reproducing the Fig. 10 comparison between
// goodput-based (Pollux) and throughput-based (Or et al.) scaling. The
// configured engine selects between the discrete-event loop (default) and
// the original fixed-step loop.
func RunAutoscale(spec *models.Spec, scaler sched.Autoscaler, cfg AutoscaleConfig) AutoscaleResult {
	cfg.defaults()
	if cfg.Engine == EngineTick {
		return runAutoscaleTick(spec, scaler, cfg)
	}
	return runAutoscaleEvent(spec, scaler, cfg)
}

// runAutoscaleTick is the fixed-step single-job autoscaling loop, kept as
// the parity oracle for runAutoscaleEvent.
func runAutoscaleTick(spec *models.Spec, scaler sched.Autoscaler, cfg AutoscaleConfig) AutoscaleResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ag := agent.New(spec.M0, spec.Eta0, spec.MaxBatchPerGPU, spec.MaxBatchGlobal)

	var res AutoscaleResult
	nodesReady := cfg.MinNodes // nodes currently usable
	nodesPaid := cfg.MinNodes  // nodes being paid for (incl. provisioning)
	provisionAt := -1.0        // when provisioning nodes become ready
	provisioning := 0

	batch := spec.M0
	progress := 0.0
	restartUntil := 0.0
	nextDecision := 0.0
	nextAgent := 0.0
	nextSample := 0.0

	placement := func(n int) core.Placement {
		return core.Placement{GPUs: n * cfg.GPUsPerNode, Nodes: n}
	}

	for now := 0.0; now < cfg.MaxTime; now += cfg.Tick {
		frac := progress / spec.TotalWork()

		// Finish provisioning.
		if provisioning > 0 && now >= provisionAt {
			nodesReady += provisioning
			provisioning = 0
			restartUntil = now + cfg.RestartDelay
		}

		// Agent profiling and tuning: Refit runs the (possibly
		// warm-started) fit when one is due.
		if now >= nextAgent {
			phi := spec.Phi(frac) * (1 + cfg.NoiseFrac*(rng.Float64()*2-1))
			ag.SetPhi(phi)
			ag.Refit()
			pl := placement(nodesReady)
			if cfg.AdaptBatchGoodput {
				batch, _ = ag.TuneBatch(pl)
			} else {
				batch = sched.ThroughputOptimalBatch(ag.Report(), pl)
			}
			nextAgent += cfg.AgentInterval
		}

		// Autoscaling decision.
		if now >= nextDecision {
			model := ag.Report()
			want := scaler.DesiredNodes(model, cfg.GPUsPerNode)
			if cfg.RespectExploreCap {
				if cap := ag.GPUCap() / cfg.GPUsPerNode; want > cap && cap >= cfg.MinNodes {
					want = cap
				}
			}
			if want < cfg.MinNodes {
				want = cfg.MinNodes
			}
			if want > cfg.MaxNodes {
				want = cfg.MaxNodes
			}
			if want > nodesReady+provisioning {
				add := want - nodesReady - provisioning
				provisioning += add
				nodesPaid += add
				provisionAt = now + cfg.ProvisionDelay
			} else if want < nodesReady {
				nodesReady = want
				nodesPaid = want + provisioning
				restartUntil = now + cfg.RestartDelay
			}
			nextDecision += cfg.Interval
		}

		// Record the time series.
		pl := placement(nodesReady)
		eff := core.Efficiency(spec.Phi(frac), spec.M0, clampBatch(spec, batch, pl))
		if now >= nextSample {
			res.Points = append(res.Points, AutoscalePoint{
				Time: now, Nodes: nodesPaid, Batch: batch, Efficiency: eff,
			})
			nextSample += cfg.SamplePeriod
		}

		// Pay for all held nodes.
		res.CostNodeSeconds += float64(nodesPaid) * cfg.Tick

		// Train.
		if now >= restartUntil {
			m := clampBatch(spec, batch, pl)
			tIter := spec.Truth.TIter(pl, float64(m))
			tput := float64(m) / tIter
			progress += tput * eff * cfg.Tick
			noisy := tIter * (1 + cfg.NoiseFrac*(rng.Float64()*2-1))
			ag.RecordSample(pl, m, noisy)
			if progress >= spec.TotalWork() {
				res.CompletionTime = now + cfg.Tick
				res.Completed = true
				break
			}
		}
	}
	if !res.Completed {
		res.CompletionTime = cfg.MaxTime
	}
	return res
}

// clampBatch restricts a batch to the placement's memory and the model's
// limits, never below m0.
func clampBatch(spec *models.Spec, batch int, pl core.Placement) int {
	if max := pl.GPUs * spec.MaxBatchPerGPU; batch > max {
		batch = max
	}
	if spec.MaxBatchGlobal > 0 && batch > spec.MaxBatchGlobal {
		batch = spec.MaxBatchGlobal
	}
	if batch < spec.M0 {
		batch = spec.M0
	}
	return batch
}
