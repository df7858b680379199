// Package adascale implements AdaScale SGD learning-rate scaling (Johnson
// et al., cited as [25] by the Pollux paper).
//
// AdaScale's central quantity is the gain
//
//	r_t = (phi_t/m0 + 1) / (phi_t/m + 1)            (Eqn. 5 / Eqn. 19)
//
// where phi_t is the gradient noise scale, m0 the initial batch size, and
// m >= m0 the current batch size. One iteration at batch size m makes the
// same training progress as r_t iterations at m0, and the learning rate is
// scaled by r_t. The statistical efficiency used by Pollux's goodput is
// E = r_t·m0/m (Eqn. 7); that lives in internal/core.
package adascale

import (
	"fmt"
	"math"
)

// Gain returns the AdaScale gain r_t for noise scale phi, initial batch
// size m0, and current batch size m. For m >= m0 and phi >= 0 the gain
// satisfies 1 <= r_t <= m/m0. Gain panics if m0 or m is non-positive.
func Gain(phi float64, m0, m int) float64 {
	if m0 <= 0 || m <= 0 {
		panic(fmt.Sprintf("adascale: non-positive batch size m0=%d m=%d", m0, m))
	}
	if math.IsInf(phi, 1) {
		// Pure noise: every example contributes independently, so m
		// examples make m/m0 iterations' worth of progress.
		return float64(m) / float64(m0)
	}
	if phi < 0 {
		phi = 0
	}
	return (phi/float64(m0) + 1) / (phi/float64(m) + 1)
}

// LearningRate returns the AdaScale-adjusted learning rate for base rate
// eta0: eta = r_t · eta0.
func LearningRate(eta0, gain float64) float64 {
	return eta0 * gain
}

// Schedule tracks scale-invariant training progress across batch-size
// changes. AdaScale's key property for scheduling is that progress is
// additive in gain: after iterations with gains r_1..r_T, the job has made
// the equivalent of sum(r_i) iterations at batch size m0. Pollux uses this
// to account remaining work consistently while it re-tunes m.
type Schedule struct {
	m0       int
	eta0     float64
	scaleInv float64 // accumulated scale-invariant iterations
}

// NewSchedule creates a progress tracker for a job that began at batch
// size m0 with learning rate eta0.
func NewSchedule(m0 int, eta0 float64) *Schedule {
	if m0 <= 0 {
		panic("adascale: non-positive m0")
	}
	return &Schedule{m0: m0, eta0: eta0}
}

// Step records one iteration at batch size m under noise scale phi and
// returns the learning rate to use for that iteration.
func (s *Schedule) Step(phi float64, m int) float64 {
	r := Gain(phi, s.m0, m)
	s.scaleInv += r
	return LearningRate(s.eta0, r)
}

// Progress returns the accumulated scale-invariant iteration count (the
// number of m0-batch iterations' worth of progress made).
func (s *Schedule) Progress() float64 { return s.scaleInv }
