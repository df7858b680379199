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

// predFloor floors a predicted or observed iteration time before its
// logarithm is taken, so an all-zero θsys has a finite loss; lnPredFloor is
// its logarithm, where lnTIter stops.
const predFloor = 1e-12

var lnPredFloor = math.Log(predFloor)

// exactFit is the RMSLE below which a model explains its samples exactly.
// The log-space residual of an exact model is rounding noise of ~1e-16, not
// 0, and the gradient divides by the loss: normalised, that noise would be a
// direction of unit size. It is also the smallest decrease the optimizer's
// funcTol (relative to max(1, f)) can tell from none.
const exactFit = 1e-12

// lnTIter returns ln Params.TIter for a sample whose Tgrad and Tsync are tg
// and ts, at overlap exponent g ≥ 1, evaluated in log space and floored at
// lnPredFloor. With hi and lo the larger and smaller of the two,
//
//	ln pred = ln hi + log1p(exp(g·(ln lo − ln hi)))/g,
//
// which costs two Log, one Exp and one Log1p where hi·(1+(lo/hi)^g)^(1/g)
// costs two math.Pow (each a Log, an Exp, Frexp, Ldexp and Modf) before the
// Log of the result. Where both terms are nonzero it also returns what the
// partials of ln pred reuse: rg = (lo/hi)^g, lnR = ln lo − ln hi and
// l1p = log1p(rg); they are zero on the tg = 0 and ts = 0 faces.
//
// It is the one expression of the fitting loss: RMSLE and rmsleLoss both
// evaluate it, so they agree bit for bit. Params.TIter keeps
// the math.Pow form (the closed-form exhibits gate exactly on it); the two
// agree to rounding (TestRMSLEAgreesWithTIter).
func lnTIter(tg, ts, g float64) (lnPred, rg, lnR, l1p float64) {
	switch {
	case ts == 0:
		return math.Log(math.Max(tg, predFloor)), 0, 0, 0
	case tg == 0:
		return math.Log(math.Max(ts, predFloor)), 0, 0, 0
	}
	hi, lo := tg, ts
	if lo > hi {
		hi, lo = lo, hi
	}
	lnHi := math.Log(hi)
	lnR = math.Log(lo) - lnHi
	rg = math.Exp(g * lnR)
	l1p = math.Log1p(rg)
	lnPred = lnHi + l1p/g
	if lnPred < lnPredFloor {
		lnPred = lnPredFloor
	}
	return lnPred, rg, lnR, l1p
}

// lnTIterPartials returns the partial derivatives of lnTIter's ln pred with
// respect to tg, ts and g, from lnTIter's own by-products — no further
// transcendental call. With a = 1 + rg,
//
//	∂ln pred/∂hi = 1/(hi·a)   ∂ln pred/∂lo = rg/(lo·a)
//	∂ln pred/∂g  = −l1p/g² + rg·lnR/(g·a).
//
// On the ts = 0 face the γ-mean is genuinely flat in ts for g > 1 (the
// partial vanishes), but at g = 1 the sum's slope is 1 — losing it would pin
// sync parameters at zero forever; likewise for tg = 0.
func lnTIterPartials(tg, ts, g, rg, lnR, l1p float64) (dTg, dTs, dG float64) {
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
		a := 1 + rg
		if tg >= ts {
			dTg, dTs = 1/(tg*a), rg/(ts*a)
		} else {
			dTg, dTs = rg/(tg*a), 1/(ts*a)
		}
		dG = -l1p/(g*g) + rg*lnR/(g*a)
	}
	return dTg, dTs, dG
}

// accumulate adds one sample's term d·∂ln pred/∂θ to the unnormalised
// gradient, in Params.Vector order. clamped means γ sits below its clamp at
// 1, where the loss is flat in it.
func (s Sample) accumulate(grad []float64, d, dTg, dTs, dG float64, clamped bool) {
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
	if !clamped {
		grad[6] += d * dG
	}
}

// RMSLE returns the root mean squared logarithmic error between the
// model's predicted iteration times and the observed samples — the fitting
// loss from Sec. 4.1. Predictions are evaluated in log space (lnTIter).
func RMSLE(p Params, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	g := math.Max(p.Gamma, 1)
	sum := 0.0
	for _, s := range samples {
		lnPred, _, _, _ := lnTIter(p.TGrad(float64(s.Batch), s.Placement.GPUs), p.TSync(s.Placement), g)
		d := lnPred - math.Log(math.Max(s.TIter, predFloor))
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(samples)))
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
	starts, scale := fitStarts(samples, prev, explored)
	return descend(loss, starts, explored.fitBounds(), scale, 150)
}

// fitStarts returns fit's starting points and the scale of the coordinates
// it descends in (see descend).
func fitStarts(samples []Sample, prev Params, explored Exploration) (starts []Params, scale [7]float64) {
	// Fits run every agent interval for every job in the cluster, so the
	// start list is kept short: a warm start from the previous fit plus a
	// data-derived default, with a sync-heavy start only for cold fits.
	def := defaultParams(samples)
	if prev != (Params{}) {
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
			prev.AlphaSyncLocal, prev.AlphaSyncNode = 0.05, 0.1
		}
		starts = []Params{prev, def}
	} else {
		// A sync-heavy start helps when the data is dominated by
		// multi-node placements.
		heavy := def
		heavy.AlphaSyncLocal, heavy.AlphaSyncNode = 0.05, 0.1
		heavy.Gamma = 3
		starts = []Params{def, heavy}
	}
	// The default splits the fastest single-GPU iteration evenly between
	// αg and βg·batch, so twice its terms are that iteration's time and its
	// time per example.
	return starts, thetaScale(2*def.AlphaGrad, 2*def.BetaGrad)
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

// fitWarm is FitWarm's single descent from a non-zero prev, in coordinates
// scaled by the incumbent's own αg and βg (the box keeps both positive).
func fitWarm(loss opt.Objective, prev Params, explored Exploration) opt.Result {
	box := explored.fitBounds()
	pv := prev.Vector()
	box.Clamp(pv)
	return descend(loss, []Params{prev}, box, thetaScale(pv[0], pv[1]), 60)
}

// thetaScale returns the scale s of a fit's coordinates from a typical
// iteration time t and a typical time per example (both positive): the
// constants αg, αl, αn are of the order of t, βg of perExample, the
// per-replica retrogression slopes βl, βn a tenth of t, and γ of 1.
func thetaScale(t, perExample float64) [7]float64 {
	return [7]float64{t, perExample, t, t / 10, t, t / 10, 1}
}

// scaledLoss presents a θsys loss to the optimizer in the coordinates
// u = θ ⊘ s. lo and hi are the fit's box in those coordinates.
type scaledLoss struct {
	loss   opt.Objective
	s      [7]float64
	theta  [7]float64 // u ⊙ s of the last Value
	lo, hi [7]float64
}

func (l *scaledLoss) Value(u []float64) float64 {
	for i, ui := range u {
		l.theta[i] = ui * l.s[i]
	}
	return l.loss.Value(l.theta[:])
}

// Grad is the chain rule: ∂f/∂u = ∂f/∂θ ⊙ s.
func (l *scaledLoss) Grad(g []float64) {
	l.loss.Grad(g)
	for i := range g {
		g[i] *= l.s[i]
	}
}

// descend runs L-BFGS-B on loss from each start (at most three, projected
// onto box first) and returns the best result, its X a θsys vector.
//
// The optimizer does not see θ but u = θ ⊘ s. αg ≈ 1e-1, βg ≈ 1e-4 and γ ≈ 1
// span five orders of magnitude, and this L-BFGS-B is not invariant to that:
// its first step is unscaled steepest descent and the initial inverse
// Hessian of every later one is a multiple of the identity, so in θ a warm
// start one sample away from its predecessor still crawls for a hundred
// iterations. s is data, derived from the fit's own inputs (thetaScale), so
// that every free coordinate of u is of order 1; the box and the starts are
// divided by it, the gradient multiplied (scaledLoss). The minimiser is
// multiplied back and the box applied again: u_lo·s may miss the bound by a
// rounding, and a frozen coordinate must come back as exactly 0. s = 1 is
// the unscaled descent, bit for bit; only TestScaledFitBeatsIdentityScale
// passes that.
func descend(loss opt.Objective, starts []Params, box opt.Bounds, s [7]float64, maxIter int) opt.Result {
	l := &scaledLoss{loss: loss, s: s}
	for i, si := range s {
		l.lo[i], l.hi[i] = box.Lower[i]/si, box.Upper[i]/si
	}
	var u [3][7]float64
	var us [3][]float64
	for k, p := range starts {
		us[k] = u[k][:]
		copy(us[k], p.Vector())
		box.Clamp(us[k])
		for i, si := range s {
			us[k][i] /= si
		}
	}
	res := opt.MultiStartGrad(l, us[:len(starts)], opt.Bounds{Lower: l.lo[:], Upper: l.hi[:]}, opt.LBFGSBOptions{MaxIter: maxIter})
	for i, si := range s {
		res.X[i] *= si
	}
	box.Clamp(res.X)
	return res
}

// rmsleLoss is the fit's objective (an opt.Objective): RMSLE over a fixed
// sample set, and its gradient at the point last evaluated. Value keeps
// each sample's Tgrad, Tsync, ln prediction, log error and lnTIter's
// by-products; Grad finishes the analytic gradient of RMSLE from them,
// which is why it may only follow a Value — the optimizer asks for
// gradients nowhere else. An evaluation point then costs two math.Log, one
// Exp and one Log1p per multi-GPU sample in Value (one Log for a single-GPU
// sample) and no transcendental call at all where a gradient is taken.
// Operands and summation order are those of RMSLE, so Value repeats it bit
// for bit; the tests hold Grad to a self-contained gradient the same way.
type rmsleLoss struct {
	samples []Sample
	logObs  []float64 // ln of each observation, constant over the fit

	p     Params  // θsys of the last Value
	rmsle float64 // its result
	// Per-sample terms of the last Value; rg, lnR and l1p as lnTIter
	// returns them.
	tg, ts, lnPred, d, rg, lnR, l1p []float64
}

func newRMSLELoss(samples []Sample) *rmsleLoss {
	n := len(samples)
	buf := make([]float64, 8*n)
	carve := func() []float64 {
		v := buf[:n:n]
		buf = buf[n:]
		return v
	}
	l := &rmsleLoss{
		samples: samples,
		logObs:  carve(),
		tg:      carve(),
		ts:      carve(),
		lnPred:  carve(),
		d:       carve(),
		rg:      carve(),
		lnR:     carve(),
		l1p:     carve(),
	}
	for i, s := range samples {
		l.logObs[i] = math.Log(math.Max(s.TIter, predFloor))
	}
	return l
}

// Value returns RMSLE(ParamsFromVector(v), samples).
func (l *rmsleLoss) Value(v []float64) float64 {
	p := ParamsFromVector(v)
	l.p = p
	g := math.Max(p.Gamma, 1)
	sum := 0.0
	for i, s := range l.samples {
		tg := p.TGrad(float64(s.Batch), s.Placement.GPUs)
		ts := p.TSync(s.Placement)
		lnPred, rg, lnR, l1p := lnTIter(tg, ts, g)
		d := lnPred - l.logObs[i]
		l.tg[i], l.ts[i], l.lnPred[i], l.d[i] = tg, ts, lnPred, d
		l.rg[i], l.lnR[i], l.l1p[i] = rg, lnR, l1p
		sum += d * d
	}
	l.rmsle = math.Sqrt(sum / float64(len(l.samples)))
	return l.rmsle
}

// Grad writes the gradient of RMSLE with respect to the θsys vector
// (Params.Vector order) at the point of the last Value into grad. At the
// (measure-zero) kinks of TIter the subgradient 0 is used for the sync
// parameters, matching the frozen-bounds behaviour, and at an exact fit
// (RMSLE below exactFit) the gradient is the zero vector.
func (l *rmsleLoss) Grad(grad []float64) {
	for i := range grad {
		grad[i] = 0
	}
	if l.rmsle < exactFit {
		return
	}
	g := math.Max(l.p.Gamma, 1)
	for i, s := range l.samples {
		if l.lnPred[i] <= lnPredFloor {
			continue
		}
		dTg, dTs, dG := lnTIterPartials(l.tg[i], l.ts[i], g, l.rg[i], l.lnR[i], l.l1p[i])
		s.accumulate(grad, l.d[i], dTg, dTs, dG, l.p.Gamma < 1)
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
