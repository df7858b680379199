// Package gns implements gradient noise scale estimation as used by Pollux
// (Sec. 3.1 of the paper) to quantify the statistical efficiency of large
// batch sizes.
//
// Conventions. Let g(t) be the true gradient at iteration t with squared
// norm mu² = |E[ĝ]|², and let S be the trace of the per-example gradient
// covariance. A mini-batch gradient estimate over B examples then has
// variance S/B. The paper measures sigma² = Var[ĝ] at the initial batch
// size m0, so sigma² = S/m0, and defines the gradient noise scale
//
//	phi_t = m0·sigma²/mu² = S/mu².
//
// phi is therefore independent of the batch size it was measured at, which
// is what lets Pollux predict EFFICIENCY_t(m) = (phi+m0)/(phi+m) for batch
// sizes it has never run (Eqn. 7).
//
// Two estimators are provided, matching Sec. 3.1:
//
//   - ReplicaEstimator uses the K per-replica gradient estimates already
//     available during data-parallel training (the McCandlish et al.
//     two-batch-size construction with B_small = m/K and B_big = m).
//   - DiffEstimator is the differenced variance estimator (Wang & Yu)
//     used when only a single replica is running and no per-replica
//     spread exists.
//
// Both feed a Tracker that smooths sigma² and mu² with exponential moving
// averages before forming phi, as raw per-iteration estimates are noisy.
package gns

import (
	"errors"
	"math"
)

// Estimate is one iteration's unbiased estimate of the gradient statistics.
type Estimate struct {
	SqNorm     float64 // estimate of mu² = |E[ĝ]|²
	ExampleVar float64 // estimate of S = total per-example gradient variance
}

// errs for estimator misuse.
var (
	ErrNeedTwoReplicas = errors.New("gns: replica estimator needs at least two local gradients")
	ErrDimMismatch     = errors.New("gns: gradient dimension mismatch")
	ErrNeedPrev        = errors.New("gns: differenced estimator needs a previous gradient")
)

// FromReplicas computes an Estimate from the K >= 2 per-replica gradient
// estimates of one data-parallel iteration. Each local gradient must have
// been computed over batchPerReplica examples. It uses the two-scale
// construction: |G|² estimated without noise bias from the pair
// (B_small = batchPerReplica, B_big = K·batchPerReplica).
func FromReplicas(local [][]float64, batchPerReplica int) (Estimate, error) {
	k := len(local)
	if k < 2 {
		return Estimate{}, ErrNeedTwoReplicas
	}
	dim := len(local[0])
	for _, g := range local {
		if len(g) != dim {
			return Estimate{}, ErrDimMismatch
		}
	}
	bSmall := float64(batchPerReplica)
	bBig := float64(k * batchPerReplica)

	// |G_big|² = |mean over replicas|², |G_small|² = mean over replicas
	// of |g_k|².
	mean := make([]float64, dim)
	sqSmall := 0.0
	for _, g := range local {
		for i, v := range g {
			mean[i] += v
			sqSmall += v * v
		}
	}
	sqSmall /= float64(k)
	sqBig := 0.0
	for i := range mean {
		mean[i] /= float64(k)
		sqBig += mean[i] * mean[i]
	}

	// McCandlish et al., Appendix A: unbiased estimators for |G|² and S.
	sqNorm := (bBig*sqBig - bSmall*sqSmall) / (bBig - bSmall)
	exVar := (sqSmall - sqBig) / (1/bSmall - 1/bBig)
	return Estimate{SqNorm: sqNorm, ExampleVar: exVar}, nil
}

// DiffEstimator computes gradient statistics from consecutive whole-batch
// gradients when only one replica exists. Under the assumption that the
// true gradient changes slowly between adjacent iterations,
// |ĝ(t) − ĝ(t−1)|²/2 estimates the batch-mean variance S/m.
type DiffEstimator struct {
	prev  []float64
	batch int
	ready bool
}

// NewDiffEstimator creates a differenced estimator for gradients computed
// at the given whole-batch size.
func NewDiffEstimator(batch int) *DiffEstimator {
	return &DiffEstimator{batch: batch}
}

// Update consumes the gradient of the current iteration and, from the
// second call onward, returns an Estimate.
func (d *DiffEstimator) Update(grad []float64) (Estimate, error) {
	if d.prev != nil && len(grad) != len(d.prev) {
		return Estimate{}, ErrDimMismatch
	}
	if !d.ready {
		d.prev = append(d.prev[:0], grad...)
		d.ready = true
		return Estimate{}, ErrNeedPrev
	}
	diffSq := 0.0
	normSq := 0.0
	for i, v := range grad {
		dd := v - d.prev[i]
		diffSq += dd * dd
		normSq += v * v
	}
	d.prev = append(d.prev[:0], grad...)

	batchVar := diffSq / 2 // Var of the batch-mean gradient
	exVar := batchVar * float64(d.batch)
	// |ĝ|² is biased upward by the batch-mean variance; correct it.
	sqNorm := normSq - batchVar
	return Estimate{SqNorm: sqNorm, ExampleVar: exVar}, nil
}

// Tracker smooths raw per-iteration estimates into a stable noise scale.
// Pollux reports the smoothed phi to the scheduler every 30 s; without
// smoothing the per-iteration estimates are far too noisy to schedule on.
type Tracker struct {
	decay  float64
	sqNorm float64
	exVar  float64
	weight float64
}

// NewTracker creates a Tracker with the given EMA decay in (0, 1); values
// near 1 smooth more. A decay of 0.95 tracks roughly the last 20
// iterations.
func NewTracker(decay float64) *Tracker {
	if decay <= 0 || decay >= 1 {
		panic("gns: decay must be in (0, 1)")
	}
	return &Tracker{decay: decay}
}

// Observe folds one raw estimate into the moving averages. Non-positive
// variance estimates (possible for unbiased estimators on small samples)
// are clamped to zero; non-positive signal estimates are clamped to a tiny
// floor so phi stays finite.
func (t *Tracker) Observe(e Estimate) {
	v := math.Max(e.ExampleVar, 0)
	n := math.Max(e.SqNorm, 0)
	t.sqNorm = t.decay*t.sqNorm + (1-t.decay)*n
	t.exVar = t.decay*t.exVar + (1-t.decay)*v
	t.weight = t.decay*t.weight + (1 - t.decay)
}

// NoiseScale returns the smoothed phi estimate. Before any observations it
// returns 0 (i.e. perfect efficiency is assumed, matching Pollux's
// optimistic priors).
func (t *Tracker) NoiseScale() float64 {
	if t.weight == 0 {
		return 0
	}
	n := t.sqNorm / t.weight
	v := t.exVar / t.weight
	if v <= 0 {
		return 0
	}
	if n <= 0 {
		return math.Inf(1)
	}
	return v / n
}
