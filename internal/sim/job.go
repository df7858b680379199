package sim

import (
	"math"
	"math/rand"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/models"
)

// Job is one simulated training job: the ground truth of Sec. 5.3 — on
// placement (K, N) at batch m it advances at THROUGHPUT_true(K, N, m) x
// EFFICIENCY_t(m) while its agent profiles noisy iteration times — plus the
// accounting a run is summarized from. Every engine holds its jobs as this
// type: the cluster simulator (jobState), single-job autoscaling
// (RunAutoscale) and the replay trainers (cluster.Trainer). An engine owns
// when things happen — placements, pauses, the clock — and the Job owns
// what happens to training when they do, so the rule is written once.
//
// The exported fields are the holder's to set; the methods never change
// Batch, Placement or RestartUntil.
type Job struct {
	Spec  *models.Spec
	Agent *agent.Agent

	Batch        int            // batch size asked for, before the placement clamp
	Placement    core.Placement // GPUs held now; zero when unallocated
	RestartUntil float64        // end of the checkpoint-restart pause in force

	Progress float64 // m0-equivalent examples completed
	GPUTime  float64 // GPU-seconds consumed
	// Sums over running time, the inputs of Summarize.
	EffSum, TputSum, GoodSum, RunTime float64

	// rng supplies the measurement noise, of relative size NoiseFrac (the
	// cluster simulator shares one across its jobs, a trainer owns its own).
	rng *rand.Rand

	// Closed-form kernel state. lastT is the time training state was last
	// advanced to; rate is the training rate frozen at the last event;
	// version invalidates stale milestone predictions; predTarget is the
	// progress value the pending milestone aims at.
	lastT      float64
	rate       jobRate
	version    uint64
	predTarget float64
}

// jobRate is a job's training rate frozen at the most recent event. The
// closed-form kernel advances progress as progress += good * dt between
// events; every event that can change the rate re-freezes it, so the rate
// is piecewise-constant over intervals of at most the refresh interval.
type jobRate struct {
	m     int     // effective batch size after placement clamping
	tIter float64 // true seconds per iteration (incl. interference)
	tput  float64 // examples per second
	eff   float64 // statistical efficiency at the freeze point
	good  float64 // goodput = tput * eff, in m0-equivalent examples/s
}

// NewJob returns a job of the spec at zero progress with a fresh agent,
// training at m0 until its holder sets another batch.
func NewJob(spec *models.Spec, rng *rand.Rand) Job {
	return Job{
		Spec:  spec,
		Agent: agent.New(spec.M0, spec.Eta0, spec.MaxBatchPerGPU, spec.MaxBatchGlobal),
		Batch: spec.M0,
		rng:   rng,
	}
}

// ClusterBatch is the cluster rule for the batch a job trains at: a batch
// that does not fit the placement's memory trains at the largest that does
// (a baseline's fixed batch on a smaller allocation), and a placement that
// cannot hold even m0 cannot run — 0, which includes holding no GPUs. The
// scheduler decides placements here, so an infeasible one must cost the
// job its progress rather than be papered over.
func (j *Job) ClusterBatch() int {
	m := j.Batch
	if maxFit := j.Placement.GPUs * j.Spec.MaxBatchPerGPU; m > maxFit {
		m = maxFit
	}
	if m < j.Spec.M0 {
		return 0
	}
	return m
}

// SingleJobBatch is the single-job autoscaling rule: the batch is clamped
// to the placement's memory and the model's global limit and never below
// m0. The autoscaler always holds at least one node and the
// throughput-optimal batch it is compared against ignores the global
// limit, so this rule bounds instead of refusing.
func (j *Job) SingleJobBatch() int {
	m := j.Batch
	if maxFit := j.Placement.GPUs * j.Spec.MaxBatchPerGPU; m > maxFit {
		m = maxFit
	}
	if j.Spec.MaxBatchGlobal > 0 && m > j.Spec.MaxBatchGlobal {
		m = j.Spec.MaxBatchGlobal
	}
	if m < j.Spec.M0 {
		m = j.Spec.M0
	}
	return m
}

// trueRate is the ground-truth iteration time and throughput at batch m on
// the current placement, slowed by the interference factor in [0, 1) when
// the holder says the job shares a node with another distributed job.
func (j *Job) trueRate(m int, slowdown float64) (tIter, tput float64) {
	tIter = j.Spec.Truth.TIter(j.Placement, float64(m))
	if slowdown > 0 {
		tIter /= 1 - slowdown
	}
	return tIter, float64(m) / tIter
}

// Efficiency is the true statistical efficiency of batch m at the job's
// current progress.
func (j *Job) Efficiency(m int) float64 {
	return core.Efficiency(j.Spec.Phi(j.Progress/j.Spec.TotalWork()), j.Spec.M0, m)
}

// Finished reports whether the job has done all its work.
func (j *Job) Finished() bool { return j.Progress >= j.Spec.TotalWork() }

// Step is the fixed-step advance: dt seconds of training at batch m (the
// holder's clamp rule; it must be positive), re-reading the efficiency at
// the current progress, with one noisy iteration-time observation profiled
// into the agent. The holder checks the restart pause and Finished.
func (j *Job) Step(m int, slowdown, dt float64) {
	tIter, tput := j.trueRate(m, slowdown)
	eff := j.Efficiency(m)
	good := tput * eff

	j.Progress += good * dt
	j.GPUTime += float64(j.Placement.GPUs) * dt
	j.EffSum += eff * dt
	j.TputSum += tput * dt
	j.GoodSum += good * dt
	j.RunTime += dt

	j.Agent.RecordSample(j.Placement, m, tIter*(1+NoiseFrac*(j.rng.Float64()*2-1)))
}

// ObservePhi hands the agent one noisy observation of the gradient noise
// scale at the job's current progress. What follows it — which agents
// refit, and whether the batch is re-tuned — is the holder's.
func (j *Job) ObservePhi() {
	phi := j.Spec.Phi(j.Progress/j.Spec.TotalWork()) * (1 + NoiseFrac*(j.rng.Float64()*2-1))
	j.Agent.SetPhi(phi)
}

// MinGPUs is the fewest GPUs whose combined memory fits the batch.
func (j *Job) MinGPUs(batch int) int {
	return (batch + j.Spec.MaxBatchPerGPU - 1) / j.Spec.MaxBatchPerGPU
}

// RemainingIters is the Optimus+Oracle remaining-iterations oracle: the
// iterations left at the given fixed batch, at its true efficiency now.
func (j *Job) RemainingIters(batch int) float64 {
	return (j.Spec.TotalWork() - j.Progress) / (j.Efficiency(batch) * float64(batch))
}

// freeze fixes the training rate at batch m (0: cannot run, a zero rate)
// until the next event that can change it. The statistical efficiency
// drifts with progress as the noise scale grows, so instead of the
// left-endpoint value the rate uses a midpoint estimate: efficiency at the
// progress the job will have reached half a refresh interval ahead (rates
// are re-frozen at least every refresh seconds), clamped at total work and
// at the next decay boundary so the phi jump there is never smeared
// backwards.
func (j *Job) freeze(m int, slowdown, refresh float64) {
	j.rate = jobRate{}
	if m == 0 {
		return
	}
	tIter, tput := j.trueRate(m, slowdown)
	total := j.Spec.TotalWork()
	mid := j.Progress + tput*j.Efficiency(m)*refresh/2
	if mid > total {
		mid = total
	}
	for _, d := range j.Spec.Decays {
		if pd := d.Progress * total; pd > j.Progress && mid > pd {
			mid = pd
		}
	}
	eff := core.Efficiency(j.Spec.Phi(mid/total), j.Spec.M0, m)
	j.rate = jobRate{m: m, tIter: tIter, tput: tput, eff: eff, good: tput * eff}
}

// advanceTo advances progress and accounting to time t in closed form from
// the frozen rate, excluding any portion of the interval spent in the
// checkpoint-restart pause. The whole segment is profiled as the number of
// per-tick observations a fixed-step loop would have recorded, with the
// measurement noise of their mean (one uniform draw scaled by 1/sqrt(n)
// has the same variance as the mean of n draws), so the agent sees
// statistically identical profiling either way.
func (j *Job) advanceTo(t, tick float64) {
	if t <= j.lastT {
		return
	}
	start := j.lastT
	if j.RestartUntil > start {
		start = j.RestartUntil
	}
	if start < t && j.rate.good > 0 {
		dt := t - start
		j.Progress += j.rate.good * dt
		j.GPUTime += float64(j.Placement.GPUs) * dt
		j.EffSum += j.rate.eff * dt
		j.TputSum += j.rate.tput * dt
		j.GoodSum += j.rate.good * dt
		j.RunTime += dt
		n := observationCount(dt, tick)
		noisy := j.rate.tIter * (1 + NoiseFrac*(j.rng.Float64()*2-1)/math.Sqrt(float64(n)))
		j.Agent.RecordSampleN(j.Placement, j.rate.m, noisy, n)
	}
	j.lastT = t
}

// nextMilestone is the progress value the closed-form prediction aims at:
// the nearer of the next learning-rate decay boundary and completion.
func (j *Job) nextMilestone() float64 {
	total := j.Spec.TotalWork()
	target := total
	for _, d := range j.Spec.Decays {
		if pd := d.Progress * total; pd > j.Progress && pd < target {
			target = pd
		}
	}
	return target
}

// predict computes from the frozen rate when the job reaches its next
// milestone and pushes that as an event of the given kind; any milestone
// pushed earlier is invalidated by the version bump. A paused or
// unallocated job gets none: nothing will happen to it on its own. Nor
// does a milestone beyond the next rate refresh (at most refresh seconds
// away), which is certain to be superseded before it can fire; pushing it
// would only pile dead events into the heap on long traces, and the
// refresh predicts again once it is near enough.
func (j *Job) predict(q *eventsim.Queue, now, refresh float64, id, kind int) {
	j.version++
	if j.rate.good <= 0 {
		return
	}
	target := j.nextMilestone()
	start := now
	if j.RestartUntil > start {
		start = j.RestartUntil
	}
	t := start + (target-j.Progress)/j.rate.good
	if t > now+refresh {
		return
	}
	j.predTarget = target
	q.Push(eventsim.Event{Time: t, Class: eventsim.ClassJob, Job: id, Kind: kind, Version: j.version})
}

// reach lands the job on the milestone a fired prediction aimed at, and
// reports false for a stale one, superseded by a later event. The event
// time was computed so the frozen rate lands exactly on the target; the
// assignment snaps away the floating-point residue. At a decay boundary
// phi jumps, so the holder freezes and predicts again.
func (j *Job) reach(e eventsim.Event, tick float64) bool {
	if e.Version != j.version {
		return false
	}
	j.advanceTo(e.Time, tick)
	j.Progress = j.predTarget
	return true
}

// observationCount converts an advanced segment into the number of
// per-tick profiling observations a fixed-step loop would have made.
func observationCount(dt, tick float64) int {
	n := int(dt/tick + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
