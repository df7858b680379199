package core

import (
	"math"

	"repro/internal/opt"
)

// Sample is one observed (allocation, batch size, iteration time) triple
// recorded by the PolluxAgent during training (Sec. 4.1).
type Sample struct {
	Placement Placement
	Batch     int
	TIter     float64 // observed seconds per iteration
}

// Exploration records the extent of the allocation space a job has
// visited. Pollux biases θsys towards perfect scaling for unexplored
// configurations (prior-driven exploration, Sec. 4.1) by freezing the
// corresponding parameters at zero until data exists to fit them:
//
//   - the local sync constant is frozen at 0 until the job has used more
//     than one GPU (no synchronization ever observed);
//   - the node sync parameters are frozen at 0 until the job has used
//     more than one node;
//   - the retrogression slopes are frozen at 0 until the job has used
//     more than two GPUs (a slope is unidentifiable from K ≤ 2).
//
// This makes unexplored configurations look perfectly scalable, so
// PolluxSched is encouraged to try them as part of its normal goodput
// optimization.
type Exploration struct {
	MaxGPUs  int // most GPUs the job has ever been allocated
	MaxNodes int // most nodes the job has ever spanned
}

// Observe widens the exploration extent with a placement the job ran on.
func (e *Exploration) Observe(pl Placement) {
	if pl.GPUs > e.MaxGPUs {
		e.MaxGPUs = pl.GPUs
	}
	if pl.Nodes > e.MaxNodes {
		e.MaxNodes = pl.Nodes
	}
}

// GPUCap returns the exploration cap on allocations: at most twice the
// maximum number of GPUs the job has held in its lifetime (Sec. 4.1),
// preventing a brand-new job from being scaled out arbitrarily on the
// strength of its optimistic priors alone.
func (e Exploration) GPUCap() int {
	if e.MaxGPUs < 1 {
		return 2
	}
	return 2 * e.MaxGPUs
}

// fitBounds returns the box constraints for θsys fitting, applying the
// prior freezes for unexplored configurations.
func (e Exploration) fitBounds() opt.Bounds {
	// Vector order: αg, βg, αl, βl, αn, βn, γ.
	lo := []float64{1e-6, 1e-8, 0, 0, 0, 0, 1}
	hi := []float64{100, 10, 100, 10, 100, 10, 10}
	freeze := func(i int) { lo[i], hi[i] = 0, 0 }
	if e.MaxGPUs <= 1 {
		freeze(2) // αl: no sync ever observed
	}
	if e.MaxNodes <= 1 {
		freeze(4) // αn
		freeze(5) // βn
	}
	if e.MaxGPUs <= 2 {
		freeze(3) // βl: retrogression unidentifiable
		freeze(5) // βn
	}
	return opt.Bounds{Lower: lo, Upper: hi}
}

// RMSLE returns the root mean squared logarithmic error between the
// model's predicted iteration times and the observed samples — the fitting
// loss from Sec. 4.1.
func RMSLE(p Params, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		pred := p.TIter(s.Placement, float64(s.Batch))
		d := math.Log(math.Max(pred, 1e-12)) - math.Log(math.Max(s.TIter, 1e-12))
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(samples)))
}

// RMSLEGrad returns the analytic gradient of RMSLE with respect to the
// θsys vector (Params.Vector order). At the (measure-zero) kinks of TIter
// the subgradient 0 is used for the sync parameters, matching the
// frozen-bounds behaviour.
//
// It is self-contained, so one call costs a whole loss evaluation (two
// math.Pow and two math.Log per multi-GPU sample) before the gradient's own
// two Pow and three logarithms. The fit does not pay that: rmsleLoss.Grad
// computes these same expressions from what its Value already evaluated.
// RMSLEGrad stays as the reference the tests hold that objective to, bit
// for bit.
func RMSLEGrad(p Params, samples []Sample) []float64 {
	grad := make([]float64, 7)
	if len(samples) == 0 {
		return grad
	}
	g := p.Gamma
	if g < 1 {
		g = 1
	}
	sumSq := 0.0
	for _, s := range samples {
		k := s.Placement.GPUs
		m := float64(s.Batch)
		tg := p.TGrad(m, k)
		ts := p.TSync(s.Placement)
		pred := p.TIter(s.Placement, m)
		d := math.Log(math.Max(pred, 1e-12)) - math.Log(math.Max(s.TIter, 1e-12))
		sumSq += d * d
		if pred <= 1e-12 {
			continue
		}

		// Partials of ln(pred) wrt tg, ts, and γ, via the factored form
		// pred = hi·A^(1/γ) with r = lo/hi, A = 1 + r^γ. On the ts = 0
		// face the γ-mean is genuinely flat in ts for γ > 1 (the partial
		// vanishes), but at γ = 1 the sum's slope is 1 — losing it would
		// pin sync parameters at zero forever.
		var dTg, dTs, dG float64
		switch {
		case ts == 0:
			dTg = 1 / tg
			if g == 1 {
				dTs = 1 / tg
			}
		case tg == 0:
			dTs = 1 / ts
			if g == 1 {
				dTg = 1 / ts
			}
		default:
			hi, lo := tg, ts
			if lo > hi {
				hi, lo = lo, hi
			}
			r := lo / hi
			rg := math.Pow(r, g)
			a := 1 + rg
			// ∂pred/∂tg = (tg/pred)^(γ-1), likewise for ts.
			scale := math.Pow(a, -(g-1)/g) / pred
			dHi := scale
			dLo := math.Pow(r, g-1) * scale
			if tg >= ts {
				dTg, dTs = dHi, dLo
			} else {
				dTg, dTs = dLo, dHi
			}
			lnHi, lnLo := math.Log(hi), math.Log(lo)
			dG = -(g*lnHi+math.Log1p(rg))/(g*g) + (lnHi+rg*lnLo)/(g*a)
		}

		grad[0] += d * dTg
		grad[1] += d * dTg * m / float64(k)
		if k > 1 {
			extra := float64(k - 2)
			if s.Placement.Nodes == 1 {
				grad[2] += d * dTs
				grad[3] += d * dTs * extra
			} else {
				grad[4] += d * dTs
				grad[5] += d * dTs * extra
			}
		}
		if p.Gamma >= 1 {
			grad[6] += d * dG
		}
	}
	n := float64(len(samples))
	rmsle := math.Sqrt(sumSq / n)
	if rmsle == 0 {
		return make([]float64, 7)
	}
	inv := 1 / (rmsle * n)
	for i := range grad {
		grad[i] *= inv
	}
	return grad
}

// Fit estimates θsys from observed samples by minimizing RMSLE with
// box-constrained L-BFGS (the paper uses L-BFGS-B), honoring the
// exploration priors. prev, if non-zero, seeds one of the multi-start
// points so fits are stable across refits. With no samples, Fit returns an
// optimistic default consistent with the priors.
func Fit(samples []Sample, prev Params, explored Exploration) Params {
	if len(samples) == 0 {
		v := defaultParams(samples).Vector()
		explored.fitBounds().Clamp(v)
		return ParamsFromVector(v)
	}
	return ParamsFromVector(fit(newRMSLELoss(samples), samples, prev, explored).X)
}

// fit is Fit's multi-start descent over a non-empty sample set, on loss as
// the objective for that set's RMSLE.
func fit(loss opt.Objective, samples []Sample, prev Params, explored Exploration) opt.Result {
	bounds := explored.fitBounds()

	// Fits run every agent interval for every job in the cluster, so the
	// start list is kept short: a warm start from the previous fit plus a
	// data-derived default, with a sync-heavy start only for cold fits.
	starts := make([][]float64, 0, 3)
	if prev != (Params{}) {
		pv := prev.Vector()
		if explored.MaxGPUs > 1 && prev.AlphaSyncLocal == 0 && prev.AlphaSyncNode == 0 &&
			RMSLE(prev, samples) > 0.08 {
			// The RMSLE surface is flat in the sync directions on the
			// sync = 0 face (for γ > 1), so a warm start sitting on it
			// could never learn real sync costs by gradient steps. If
			// the incumbent also fails to explain the data (its error
			// is well above the ~0.03 measurement-noise floor), the
			// missing sync term is the usual culprit: nudge the start
			// off the face and let the bounds pull it back if zero
			// really is optimal. A zero-sync fit that fits the data
			// well is left alone — re-walking from the nudge every
			// refit would be pure overhead.
			pv[2], pv[4] = 0.05, 0.1
		}
		bounds.Clamp(pv)
		starts = append(starts, pv)
	}
	dv := defaultParams(samples).Vector()
	bounds.Clamp(dv)
	starts = append(starts, dv)
	if prev == (Params{}) {
		// A sync-heavy start helps when the data is dominated by
		// multi-node placements.
		hv := defaultParams(samples)
		hv.AlphaSyncLocal, hv.AlphaSyncNode = 0.05, 0.1
		hv.Gamma = 3
		h := hv.Vector()
		bounds.Clamp(h)
		starts = append(starts, h)
	}

	return opt.MultiStartGrad(loss, starts, bounds, opt.LBFGSBOptions{MaxIter: 150})
}

// FitWarm refines an existing fit against an unchanged configuration set:
// a single L-BFGS descent warm-started from prev, with no multi-start
// sweep. It is the cheap path the agent uses when repeated observations of
// already-profiled configurations have tightened their averages — the
// incumbent is near the optimum of the barely-moved loss surface, so one
// short descent absorbs the change at a fraction of Fit's cost. A zero
// prev (or no data) falls back to the full Fit. Note the zero-sync-face
// nudge of Fit is deliberately absent here: a warm start that already
// explains its own data does not need it, and an incumbent stuck on the
// flat face is re-examined at the next full fit when a new configuration
// arrives.
func FitWarm(samples []Sample, prev Params, explored Exploration) Params {
	if prev == (Params{}) || len(samples) == 0 {
		return Fit(samples, prev, explored)
	}
	return ParamsFromVector(fitWarm(newRMSLELoss(samples), prev, explored).X)
}

// fitWarm is FitWarm's single descent from a non-zero prev.
func fitWarm(loss opt.Objective, prev Params, explored Exploration) opt.Result {
	bounds := explored.fitBounds()
	pv := prev.Vector()
	bounds.Clamp(pv)
	return opt.MultiStartGrad(loss, [][]float64{pv}, bounds, opt.LBFGSBOptions{MaxIter: 60})
}

// rmsleLoss is the fit's objective (an opt.Objective): RMSLE over a fixed
// sample set, and its gradient at the point last evaluated. Value keeps
// each sample's Tgrad, Tsync, prediction, log error and r^γ; Grad finishes
// RMSLEGrad's expressions from them, which is why it may only follow a
// Value — the optimizer asks for gradients nowhere else. An evaluation
// point then costs two math.Pow and one math.Log per multi-GPU sample in
// Value, and two Pow and three logarithms more only where a gradient is
// taken. Operands and summation order are those of RMSLE and RMSLEGrad, so
// both results repeat theirs bit for bit.
type rmsleLoss struct {
	samples []Sample
	logObs  []float64 // ln of each observation, constant over the fit

	p     Params  // θsys of the last Value
	rmsle float64 // its result
	// Per-sample terms of the last Value. rg is r^γ, set only where both
	// tg and ts are nonzero.
	tg, ts, pred, d, rg []float64
}

func newRMSLELoss(samples []Sample) *rmsleLoss {
	n := len(samples)
	buf := make([]float64, 6*n)
	l := &rmsleLoss{
		samples: samples,
		logObs:  buf[:n],
		tg:      buf[n : 2*n],
		ts:      buf[2*n : 3*n],
		pred:    buf[3*n : 4*n],
		d:       buf[4*n : 5*n],
		rg:      buf[5*n:],
	}
	for i, s := range samples {
		l.logObs[i] = math.Log(math.Max(s.TIter, 1e-12))
	}
	return l
}

// Value returns RMSLE(ParamsFromVector(v), samples).
func (l *rmsleLoss) Value(v []float64) float64 {
	p := ParamsFromVector(v)
	l.p = p
	g := p.Gamma
	if g < 1 {
		g = 1
	}
	sum := 0.0
	for i, s := range l.samples {
		tg := p.TGrad(float64(s.Batch), s.Placement.GPUs)
		ts := p.TSync(s.Placement)
		// Params.TIter, keeping r^γ.
		pred := tg
		switch {
		case ts == 0:
		case tg == 0:
			pred = ts
		default:
			hi, lo := tg, ts
			if lo > hi {
				hi, lo = lo, hi
			}
			rg := math.Pow(lo/hi, g)
			l.rg[i] = rg
			pred = hi * math.Pow(1+rg, 1/g)
		}
		d := math.Log(math.Max(pred, 1e-12)) - l.logObs[i]
		l.tg[i], l.ts[i], l.pred[i], l.d[i] = tg, ts, pred, d
		sum += d * d
	}
	l.rmsle = math.Sqrt(sum / float64(len(l.samples)))
	return l.rmsle
}

// Grad writes RMSLEGrad at the point of the last Value into grad.
func (l *rmsleLoss) Grad(grad []float64) {
	for i := range grad {
		grad[i] = 0
	}
	if l.rmsle == 0 {
		return
	}
	g := l.p.Gamma
	if g < 1 {
		g = 1
	}
	for i, s := range l.samples {
		tg, ts, pred, d := l.tg[i], l.ts[i], l.pred[i], l.d[i]
		if pred <= 1e-12 {
			continue
		}
		// The partials of ln(pred); RMSLEGrad derives them.
		var dTg, dTs, dG float64
		switch {
		case ts == 0:
			dTg = 1 / tg
			if g == 1 {
				dTs = 1 / tg
			}
		case tg == 0:
			dTs = 1 / ts
			if g == 1 {
				dTg = 1 / ts
			}
		default:
			hi, lo := tg, ts
			if lo > hi {
				hi, lo = lo, hi
			}
			r := lo / hi
			rg := l.rg[i]
			a := 1 + rg
			scale := math.Pow(a, -(g-1)/g) / pred
			dHi := scale
			dLo := math.Pow(r, g-1) * scale
			if tg >= ts {
				dTg, dTs = dHi, dLo
			} else {
				dTg, dTs = dLo, dHi
			}
			lnHi, lnLo := math.Log(hi), math.Log(lo)
			dG = -(g*lnHi+math.Log1p(rg))/(g*g) + (lnHi+rg*lnLo)/(g*a)
		}

		k := s.Placement.GPUs
		grad[0] += d * dTg
		grad[1] += d * dTg * float64(s.Batch) / float64(k)
		if k > 1 {
			extra := float64(k - 2)
			if s.Placement.Nodes == 1 {
				grad[2] += d * dTs
				grad[3] += d * dTs * extra
			} else {
				grad[4] += d * dTs
				grad[5] += d * dTs * extra
			}
		}
		if l.p.Gamma >= 1 {
			grad[6] += d * dG
		}
	}
	inv := 1 / (l.rmsle * float64(len(l.samples)))
	for i := range grad {
		grad[i] *= inv
	}
}

// defaultParams derives a heuristic starting point from the samples: the
// smallest single-GPU iteration time is split evenly between the constant
// and the per-example term.
func defaultParams(samples []Sample) Params {
	base := 0.1 // arbitrary but harmless default scale (seconds)
	batch := 128.0
	found := false
	for _, s := range samples {
		if s.Placement.GPUs == 1 && (!found || s.TIter < base) {
			base = s.TIter
			batch = float64(s.Batch)
			found = true
		}
	}
	return Params{
		AlphaGrad: base / 2,
		BetaGrad:  base / 2 / batch,
		Gamma:     1.5,
	}
}
