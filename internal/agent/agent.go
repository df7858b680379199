// Package agent implements the PolluxAgent (Sec. 4.1 of the paper): the
// per-job component that profiles iteration times during training, takes
// the job's measured gradient noise scale (SetPhi), fits the
// system-throughput parameters θsys online, and tunes the job's batch
// size (and, through AdaScale, its learning rate) for the resources
// currently allocated to it. At a fixed interval it reports its fitted
// goodput function to PolluxSched.
package agent

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/par"
)

// Agent is the per-job profiler/tuner. It is safe for concurrent use: the
// live-cluster runtime calls RecordSample from the training loop goroutine
// while the reporting loop calls Refit/Report.
type Agent struct {
	mu sync.Mutex

	m0             int
	eta0           float64
	maxBatchPerGPU int
	maxBatchGlobal int

	// Profiled throughput observations, keyed by configuration. Multiple
	// observations of the same configuration are averaged, which both
	// bounds memory and de-noises the fit.
	profile map[profileKey]*profileEntry

	explored   core.Exploration
	fitted     core.Params
	hasFit     bool
	fitConfigs int // distinct configs at last fit
	totalObs   int // observations recorded over the agent's lifetime
	fitObs     int // totalObs at the last executed (full or warm) fit

	phi float64 // the job's gradient noise scale, as SetPhi last set it
}

type profileKey struct {
	gpus, nodes, batch int
}

type profileEntry struct {
	sumTIter float64
	count    int
}

// New creates an agent for a job submitted with initial batch size m0 and
// learning rate eta0, subject to the given batch-size limits.
func New(m0 int, eta0 float64, maxBatchPerGPU, maxBatchGlobal int) *Agent {
	if m0 <= 0 {
		panic("agent: non-positive m0")
	}
	return &Agent{
		m0:             m0,
		eta0:           eta0,
		maxBatchPerGPU: maxBatchPerGPU,
		maxBatchGlobal: maxBatchGlobal,
		profile:        make(map[profileKey]*profileEntry),
	}
}

// RecordSample profiles one observed iteration time for a configuration.
func (a *Agent) RecordSample(pl core.Placement, batch int, tIter float64) {
	a.RecordSampleN(pl, batch, tIter, 1)
}

// RecordSampleN profiles n repeated observations whose mean iteration
// time is tIter. The event-driven simulator advances whole inter-event
// segments at once and uses this to weight a segment as the equivalent
// per-tick observation count, so profile statistics match the tick
// engine's.
func (a *Agent) RecordSampleN(pl core.Placement, batch int, tIter float64, n int) {
	if !pl.Valid() || batch <= 0 || tIter <= 0 || n <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.explored.Observe(pl)
	k := profileKey{pl.GPUs, pl.Nodes, batch}
	e := a.profile[k]
	if e == nil {
		e = &profileEntry{}
		a.profile[k] = e
	}
	e.sumTIter += tIter * float64(n)
	e.count += n
	a.totalObs += n
}

// SetPhi sets the job's gradient noise scale φt, which Report returns
// with θsys. The simulator replays measured noise-scale trajectories
// through it, as the paper's simulator does (Sec. 5.3).
func (a *Agent) SetPhi(phi float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.phi = phi
}

// refitKind classifies what work a Refit call would do right now.
const (
	refitNone = iota // nothing worth refitting
	refitWarm        // known configs re-averaged: single warm-started descent
	refitFull        // new configuration profiled: full multi-start fit
)

// refitKindLocked decides between a full fit, a warm refresh, and a skip.
// A new configuration always forces the full multi-start fit. With the
// configuration set unchanged, repeated observations only tighten the
// per-config averages, so the fit is refreshed by a cheap warm-started
// descent (core.FitWarm) — and only once the observation count has grown
// 50% past the last fit's. Re-anchoring the threshold at each executed
// fit makes the cadence geometric: refreshes come quickly while a young
// job's averages are still noisy and decay to rare as they converge,
// instead of the former permanent skip that froze θsys between new
// configurations.
func (a *Agent) refitKindLocked() int {
	if !a.hasFit || len(a.profile) != a.fitConfigs {
		return refitFull
	}
	if a.fitObs > 0 && a.totalObs-a.fitObs >= (a.fitObs+1)/2 {
		return refitWarm
	}
	return refitNone
}

// Refit re-estimates θsys from all profiled data (Sec. 4.1: periodic
// RMSLE fit with L-BFGS-B under the exploration priors). A newly profiled
// configuration triggers the full multi-start fit; repeated observations
// of known configurations are absorbed by a warm-started single descent
// on a geometrically decaying cadence (see refitKindLocked); otherwise
// the call is a cheap no-op.
func (a *Agent) Refit() {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch a.refitKindLocked() {
	case refitFull:
		a.refitLocked()
	case refitWarm:
		a.warmRefitLocked()
	}
}

// NeedsRefit reports whether a Refit call would actually run a fit now.
// It is a pure predicate — staleness bookkeeping is anchored to executed
// fits, not to skipped calls — so callers may filter agents with it and
// fan only the dirty ones out to RefitAll without changing any result.
func (a *Agent) NeedsRefit() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.refitKindLocked() != refitNone
}

// samplesLocked snapshots the profile as per-configuration mean samples.
// Map iteration order is randomized; the slice is sorted so the loss is
// summed in a fixed order and repeated runs produce bit-identical fits.
func (a *Agent) samplesLocked() []core.Sample {
	samples := make([]core.Sample, 0, len(a.profile))
	//pollux:order-ok samples are sorted by their distinct keys right after the loop
	for k, e := range a.profile {
		samples = append(samples, core.Sample{
			Placement: core.Placement{GPUs: k.gpus, Nodes: k.nodes},
			Batch:     k.batch,
			TIter:     e.sumTIter / float64(e.count),
		})
	}
	// The keys are distinct map keys, so the order is total.
	slices.SortFunc(samples, func(a, b core.Sample) int {
		return cmp.Or(
			cmp.Compare(a.Placement.GPUs, b.Placement.GPUs),
			cmp.Compare(a.Placement.Nodes, b.Placement.Nodes),
			cmp.Compare(a.Batch, b.Batch),
		)
	})
	return samples
}

func (a *Agent) refitLocked() {
	prev := core.Params{}
	if a.hasFit {
		prev = a.fitted
	}
	a.fitted = core.Fit(a.samplesLocked(), prev, a.explored)
	a.hasFit = true
	a.fitConfigs = len(a.profile)
	a.fitObs = a.totalObs
}

// warmRefitLocked refreshes the fit with a single warm-started descent
// from the incumbent (core.FitWarm) and re-anchors the staleness cadence.
func (a *Agent) warmRefitLocked() {
	a.fitted = core.FitWarm(a.samplesLocked(), a.fitted, a.explored)
	a.fitObs = a.totalObs
}

// Report returns the job's current goodput function — the (θsys, φt, m0)
// triple of Sec. 4.1 — for PolluxSched. If the agent has never fit, it
// fits first.
func (a *Agent) Report() core.Model {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.hasFit {
		a.refitLocked()
	}
	return core.Model{
		Params:         a.fitted,
		Phi:            a.phi,
		M0:             a.m0,
		MaxBatchPerGPU: a.maxBatchPerGPU,
		MaxBatchGlobal: a.maxBatchGlobal,
	}
}

// TuneBatch re-evaluates the goodput-optimal batch size for the job's
// current placement (Eqn. 13) and returns it together with the AdaScale
// learning rate for that batch.
func (a *Agent) TuneBatch(pl core.Placement) (batch int, lr float64) {
	model := a.Report()
	m, _, ok := model.OptimalBatch(pl)
	if !ok {
		m = a.m0
	}
	return m, model.OptimalLR(a.eta0, m)
}

// GPUCap returns the exploration cap: at most twice the maximum GPUs the
// job has held (Sec. 4.1), so optimistic priors cannot scale a new job
// out arbitrarily.
func (a *Agent) GPUCap() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.explored.GPUCap()
}

// RefitAll batches one report round's refits: it filters the agents whose
// Refit would actually run a fit (NeedsRefit) on the caller's goroutine,
// then fans those L-BFGS runs out over at most workers goroutines via the
// shared internal/par pool. Each fit depends only on its own agent's
// profile and draws no randomness, so the fitted models — and therefore
// every downstream trace — are bit-identical at any worker count; callers
// keep their rng draws on their own goroutine around this call. workers
// <= 1 runs the fits inline.
func RefitAll(agents []*Agent, workers int) {
	dirty := make([]*Agent, 0, len(agents))
	for _, a := range agents {
		if a.NeedsRefit() {
			dirty = append(dirty, a)
		}
	}
	par.For(workers, len(dirty), func(i int) { dirty[i].Refit() })
}
