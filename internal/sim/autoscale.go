package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/models"
	"repro/internal/sched"
)

// AutoscaleConfig controls the cloud auto-scaling scenario of Sec. 5.3.3:
// one large training job whose node count is adjusted over time.
type AutoscaleConfig struct {
	GPUsPerNode int // default 4
	MinNodes    int // default 1
	MaxNodes    int // default 16
	// AdaptBatchGoodput selects the goodput-optimal batch each interval
	// (Pollux); when false the throughput-optimal (maximum feasible)
	// batch is used (Or et al.).
	AdaptBatchGoodput bool
	// RespectExploreCap applies Pollux's 2x-lifetime-max exploration cap
	// to the node count (part of PolluxAgent's design, not Or et al.'s).
	RespectExploreCap bool
	// Tick is the step of the fixed-step engine and the profiling
	// resolution of the event engine (see sim.Config.Tick).
	Tick    float64
	MaxTime float64 // default DefaultMaxTime
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
		c.MaxNodes = max(16, c.MinNodes)
	}
	if c.Tick <= 0 {
		c.Tick = 1
	}
	if c.MaxTime <= 0 {
		c.MaxTime = DefaultMaxTime
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
	return newAutoscaleRun(spec, scaler, cfg).run()
}

func newAutoscaleRun(spec *models.Spec, scaler sched.Autoscaler, cfg AutoscaleConfig) *autoscaleRun {
	cfg.defaults()
	r := &autoscaleRun{
		cfg:            cfg,
		scaler:         scaler,
		job:            NewJob(spec, rand.New(rand.NewSource(cfg.Seed))),
		provisionDelay: ProvisionDelay,
		paid:           cfg.MinNodes,
	}
	r.place(cfg.MinNodes)
	return r
}

func (r *autoscaleRun) run() AutoscaleResult {
	if r.cfg.Engine == EngineTick {
		r.runTick()
	} else {
		r.runEvent()
	}
	if !r.res.Completed {
		r.res.CompletionTime = r.cfg.MaxTime
	}
	return r.res
}

// autoscaleRun is what the two single-job loops share: the job, and the
// nodes it trains on, pays for and waits for. The loops differ only in how
// time passes between the four things that happen — provisioning
// completion, agent round, scaling decision, sample — which they run in
// that order at one instant.
type autoscaleRun struct {
	cfg    AutoscaleConfig
	scaler sched.Autoscaler
	job    Job
	res    AutoscaleResult
	// provisionDelay is ProvisionDelay; a field so a test can make
	// scale-ups overlap.
	provisionDelay float64

	ready        int     // nodes the job trains on
	paid         int     // nodes being paid for (ready + provisioning)
	provisioning int     // nodes requested and not yet ready
	provisionAt  float64 // when they become ready
}

// place puts the job on n whole nodes.
func (r *autoscaleRun) place(n int) {
	r.ready = n
	r.job.Placement = core.Placement{GPUs: n * r.cfg.GPUsPerNode, Nodes: n}
}

// provisioned lets requested nodes that are due join the job, at the cost
// of a restart, and reports whether any did. The due check matters when
// scale-ups overlap (provisionDelay > SchedInterval): a later request pushes
// provisionAt out, and the earlier request's completion must not promote
// the combined batch early.
func (r *autoscaleRun) provisioned(now float64) bool {
	if r.provisioning == 0 || now < r.provisionAt {
		return false
	}
	r.place(r.ready + r.provisioning)
	r.provisioning = 0
	r.job.RestartUntil = now + RestartDelay
	return true
}

// agentRound is agent profiling and tuning: Refit runs the (possibly
// warm-started) fit when one is due.
func (r *autoscaleRun) agentRound() {
	j := &r.job
	j.ObservePhi()
	j.Agent.Refit()
	if r.cfg.AdaptBatchGoodput {
		j.Batch, _ = j.Agent.TuneBatch(j.Placement)
	} else {
		j.Batch = sched.ThroughputOptimalBatch(j.Agent.Report(), j.Placement)
	}
}

// decide runs one autoscaling decision. Nodes it requests are paid for at
// once and join after provisionDelay; nodes it releases go immediately, at
// the cost of a restart.
func (r *autoscaleRun) decide(now float64) (requested, released bool) {
	cfg, ag := r.cfg, r.job.Agent
	want := r.scaler.DesiredNodes(ag.Report(), cfg.GPUsPerNode)
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
	switch {
	case want > r.ready+r.provisioning:
		add := want - r.ready - r.provisioning
		r.provisioning += add
		r.paid += add
		r.provisionAt = now + r.provisionDelay
		return true, false
	case want < r.ready:
		r.place(want)
		r.paid = want + r.provisioning
		r.job.RestartUntil = now + RestartDelay
		return false, true
	}
	return false, false
}

// sample records one point of the Fig. 10 time series.
func (r *autoscaleRun) sample(now float64) {
	j := &r.job
	r.res.Points = append(r.res.Points, AutoscalePoint{
		Time: now, Nodes: r.paid, Batch: j.Batch, Efficiency: j.Efficiency(j.SingleJobBatch()),
	})
}

// runTick is the fixed-step loop, kept as the parity oracle for runEvent.
func (r *autoscaleRun) runTick() {
	cfg, j := r.cfg, &r.job
	nextAgent, nextDecision, nextSample := 0.0, 0.0, 0.0
	for now := 0.0; now < cfg.MaxTime; now += cfg.Tick {
		r.provisioned(now)
		if now >= nextAgent {
			r.agentRound()
			nextAgent += AgentInterval
		}
		if now >= nextDecision {
			r.decide(now)
			nextDecision += SchedInterval
		}
		if now >= nextSample {
			r.sample(now)
			nextSample += cfg.SamplePeriod
		}
		// Pay for all held nodes.
		r.res.CostNodeSeconds += float64(r.paid) * cfg.Tick
		if now >= j.RestartUntil {
			j.Step(j.SingleJobBatch(), 0, cfg.Tick)
			if j.Finished() {
				r.res.CompletionTime, r.res.Completed = now+cfg.Tick, true
				return
			}
		}
	}
}

// Event kinds of runEvent, in intra-instant execution order (matching the
// fixed-step loop's per-tick sequence).
const (
	asProvision = iota // requested nodes join the cluster
	asAgent            // agent profiling/tuning round
	asDecision         // autoscaler decision round
	asSample           // time-series sample for the Fig. 10 plot
	asMilestone        // predicted decay crossing or training completion
)

// runEvent is the discrete-event loop: progress advances in closed form
// between events, and the rate is re-frozen (and the next milestone
// predicted again) at every event that can change it.
func (r *autoscaleRun) runEvent() {
	cfg, j := r.cfg, &r.job
	var q eventsim.Queue
	cluster := func(t float64, kind int) {
		q.Push(eventsim.Event{Time: t, Class: eventsim.ClassCluster, Kind: kind})
	}
	refresh := func(now float64) {
		j.freeze(j.SingleJobBatch(), 0, AgentInterval)
		j.predict(&q, now, AgentInterval, 0, asMilestone)
	}
	cluster(0, asAgent)
	cluster(0, asDecision)
	cluster(0, asSample)

	lastCost := 0.0 // time the node-seconds integral was advanced to
	pay := func(t float64) {
		r.res.CostNodeSeconds += float64(r.paid) * (t - lastCost)
		lastCost = t
	}
	eventsim.Drive(&q, eventsim.Virtual{}, 0, func(e eventsim.Event) bool {
		now := e.Time
		if now > cfg.MaxTime {
			return false
		}
		pay(now)
		j.advanceTo(now, cfg.Tick)

		switch e.Kind {
		case asProvision:
			if r.provisioned(now) {
				refresh(now)
			}
		case asAgent:
			r.agentRound()
			refresh(now)
			cluster(now+AgentInterval, asAgent)
		case asDecision:
			switch requested, released := r.decide(now); {
			case requested:
				cluster(r.provisionAt, asProvision)
			case released:
				refresh(now)
			}
			cluster(now+SchedInterval, asDecision)
		case asSample:
			r.sample(now)
			cluster(now+cfg.SamplePeriod, asSample)
		case asMilestone:
			if !j.reach(e, cfg.Tick) {
				break
			}
			if j.Finished() {
				r.res.CompletionTime, r.res.Completed = now, true
				return false
			}
			refresh(now) // phi jumps at the decay boundary
		}
		return true
	})
	if !r.res.Completed && lastCost < cfg.MaxTime {
		pay(cfg.MaxTime)
	}
}
