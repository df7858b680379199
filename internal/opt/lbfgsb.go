package opt

import (
	"math"
)

// Bounds describes per-coordinate box constraints for LBFGSB. A coordinate
// with Lower[i] == Upper[i] is frozen at that value, which is how the
// Pollux agent imposes its prior-driven exploration constraints (Sec. 4.1:
// e.g. alpha_sync is pinned to zero until multi-GPU placements have been
// observed).
type Bounds struct {
	Lower []float64
	Upper []float64
}

// Clamp projects x onto the box in place.
func (b Bounds) Clamp(x []float64) {
	for i := range x {
		if x[i] < b.Lower[i] {
			x[i] = b.Lower[i]
		}
		if x[i] > b.Upper[i] {
			x[i] = b.Upper[i]
		}
	}
}

// LBFGSBOptions configures the box-constrained L-BFGS minimizer.
type LBFGSBOptions struct {
	// MaxIter bounds the number of outer iterations. Default 200.
	MaxIter int
}

func (o *LBFGSBOptions) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
}

// The minimizer's fixed settings.
const (
	// history is the number of (s, y) correction pairs kept.
	history = 8
	// gradTol terminates when the infinity-norm of the projected gradient
	// falls below it.
	gradTol float64 = 1e-8
	// funcTol terminates when the relative improvement in f falls below it.
	funcTol float64 = 1e-12
)

// Result reports the outcome of a minimization.
type Result struct {
	X     []float64 // minimizer found
	F     float64   // objective value at X
	Iters int       // outer iterations performed
	Evals int       // objective evaluations performed
}

// Objective is a function LBFGSB minimizes. Value evaluates it at x; Grad
// writes into g the gradient at the point of the most recent Value call.
// LBFGSB only ever asks for a gradient where it has just evaluated (the
// start, then each accepted line-search point), so an implementation can
// keep the intermediate terms of Value and finish the gradient from them
// without comparing points. Calling Grad before any Value is a bug in the
// caller.
type Objective interface {
	Value(x []float64) float64
	Grad(g []float64)
}

// NumGrad computes a central-difference numerical gradient of f at x,
// respecting the box: coordinates at a bound use a one-sided difference.
// x is not modified. The returned eval count is the number of calls made
// to f.
func NumGrad(f func([]float64) float64, x []float64, b Bounds, eps float64) (grad []float64, evals int) {
	grad = make([]float64, len(x))
	x = append([]float64(nil), x...)
	for i, xi := range x {
		h := eps * math.Max(1, math.Abs(xi))
		lo, hi := xi-h, xi+h
		if lo < b.Lower[i] {
			lo = b.Lower[i]
		}
		if hi > b.Upper[i] {
			hi = b.Upper[i]
		}
		//pollux:floateq-ok guards the zero-width clamped interval before dividing by hi-lo
		if hi == lo {
			grad[i] = 0
			continue
		}
		x[i] = hi
		fhi := f(x)
		x[i] = lo
		flo := f(x)
		x[i] = xi
		grad[i] = (fhi - flo) / (hi - lo)
		evals += 2
	}
	return grad, evals
}

// LBFGSB minimizes obj subject to box constraints using a projected L-BFGS
// iteration with Armijo backtracking along the projected path. x0 is not
// modified. Every vector the iteration needs is carved from one workspace
// allocated up front, so an iteration allocates nothing of its own.
//
// This is a deliberately compact reimplementation of the behaviour Pollux
// relies on from L-BFGS-B: minimize a smooth loss over a box, with some
// coordinates possibly frozen (lower == upper).
func LBFGSB(obj Objective, x0 []float64, b Bounds, opts LBFGSBOptions) Result {
	opts.defaults()
	n := len(x0)
	if len(b.Lower) != n || len(b.Upper) != n {
		panic("opt: bounds dimension mismatch")
	}
	x := make([]float64, n)
	copy(x, x0)
	b.Clamp(x)

	// The (s, y) correction pairs live in a ring of history+1 slots: the
	// candidate pair of an iteration is written into the free slot, and
	// keeping it drops the oldest pair once history are held. rhos holds
	// 1/(y·s) of each held pair, computed once when the pair is kept.
	slots := history + 1
	work := make([]float64, (4+2*slots)*n+history+slots)
	carve := func(k int) []float64 {
		v := work[:k:k]
		work = work[k:]
		return v
	}
	g, gNew, dir, xNew := carve(n), carve(n), carve(n), carve(n)
	alphas := carve(history)
	ss, ys, rhos := carve(slots*n), carve(slots*n), carve(slots)
	pair := func(i int) (s, y []float64) {
		o := (i % slots) * n
		return ss[o : o+n], ys[o : o+n]
	}
	rho := func(i int) float64 { return rhos[i%slots] }
	oldest, held := 0, 0 // pairs oldest .. oldest+held-1, newest last

	fx := obj.Value(x)
	obj.Grad(g)
	evals := 1

	iter := 0
	for ; iter < opts.MaxIter; iter++ {
		if projGradNorm(x, g, b) < gradTol {
			break
		}

		// Two-loop recursion for dir = -H*g.
		copy(dir, g)
		for i := held - 1; i >= 0; i-- {
			s, y := pair(oldest + i)
			alphas[i] = rho(oldest+i) * dot(s, dir)
			axpy(dir, y, -alphas[i])
		}
		if held > 0 {
			s, y := pair(oldest + held - 1)
			scale := dot(s, y) / dot(y, y)
			for i := range dir {
				dir[i] *= scale
			}
		}
		for i := 0; i < held; i++ {
			s, y := pair(oldest + i)
			beta := rho(oldest+i) * dot(y, dir)
			axpy(dir, s, alphas[i]-beta)
		}
		for i := range dir {
			dir[i] = -dir[i]
		}
		// Project out direction components that point outside the box at
		// active bounds; otherwise they dominate the step, get clipped by
		// the projection, and stall the line search.
		projectDirection(dir, x, b)
		// Ensure descent; fall back to projected steepest descent.
		if dot(dir, g) >= 0 {
			for i := range dir {
				dir[i] = -g[i]
			}
			projectDirection(dir, x, b)
		}

		// Backtracking line search along the projected path
		// P(x + t*dir). If the quasi-Newton direction stalls, retry
		// once with projected steepest descent.
		fNew, tried, improved := lineSearch(obj, x, dir, g, fx, xNew, b)
		evals += tried
		if !improved {
			for i := range dir {
				dir[i] = -g[i]
			}
			projectDirection(dir, x, b)
			fNew, tried, improved = lineSearch(obj, x, dir, g, fx, xNew, b)
			evals += tried
			if improved {
				held = 0 // quasi-Newton model was bad; reset
			}
		}
		if !improved {
			break
		}

		// The line search returns on the evaluation it accepts, so xNew is
		// the point of the most recent Value.
		obj.Grad(gNew)

		// Update history with s = xNew - x, y = gNew - g.
		s, y := pair(oldest + held)
		for i := range s {
			s[i] = xNew[i] - x[i]
			y[i] = gNew[i] - g[i]
		}
		if sy := dot(s, y); sy > 1e-12 {
			rhos[(oldest+held)%slots] = 1 / sy
			if held == history {
				oldest = (oldest + 1) % slots
			} else {
				held++
			}
		}

		rel := math.Abs(fx-fNew) / math.Max(1, math.Abs(fx))
		copy(x, xNew)
		copy(g, gNew)
		fx = fNew
		if rel < funcTol {
			// A vanishing step with a large projected gradient means the
			// quasi-Newton direction was degenerate (its useful component
			// got projected away at an active bound), not that we have
			// converged. Reset to steepest descent and keep going.
			if projGradNorm(x, g, b) > math.Sqrt(gradTol) && held > 0 {
				held = 0
				continue
			}
			iter++
			break
		}
	}
	return Result{X: x, F: fx, Iters: iter, Evals: evals}
}

// lineSearch backtracks along the projected path P(x + t*dir) until the
// Armijo condition holds, measured against the actual projected
// displacement. On success the accepted point is left in xNew and was the
// last one evaluated; evals is the number of Value calls made.
func lineSearch(obj Objective, x, dir, g []float64, fx float64, xNew []float64, b Bounds) (fNew float64, evals int, ok bool) {
	const c1 = 1e-4
	t := 1.0
	for ls := 0; ls < 40; ls++ {
		moved := false
		for i := range xNew {
			xNew[i] = x[i] + t*dir[i]
		}
		b.Clamp(xNew)
		for i := range xNew {
			//pollux:floateq-ok exact fixed-point check: Clamp hands back x[i] verbatim when the step leaves the box
			if xNew[i] != x[i] {
				moved = true
				break
			}
		}
		if !moved {
			return fx, evals, false
		}
		fNew = obj.Value(xNew)
		evals++
		dec := 0.0
		for i := range xNew {
			dec += g[i] * (xNew[i] - x[i])
		}
		if fNew <= fx+c1*dec && fNew < fx {
			return fNew, evals, true
		}
		t *= 0.5
	}
	return fx, evals, false
}

// projectDirection zeroes components of dir that point outside the box at
// coordinates sitting on an active bound.
func projectDirection(dir, x []float64, b Bounds) {
	for i := range dir {
		if x[i] <= b.Lower[i] && dir[i] < 0 {
			dir[i] = 0
		}
		if x[i] >= b.Upper[i] && dir[i] > 0 {
			dir[i] = 0
		}
	}
}

// projGradNorm returns the infinity norm of the projected gradient: the
// gradient with components pointing out of the box at active bounds zeroed.
func projGradNorm(x, g []float64, b Bounds) float64 {
	norm := 0.0
	for i := range x {
		gi := g[i]
		if x[i] <= b.Lower[i] && gi > 0 {
			gi = 0
		}
		if x[i] >= b.Upper[i] && gi < 0 {
			gi = 0
		}
		if a := math.Abs(gi); a > norm {
			norm = a
		}
	}
	return norm
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// axpy computes dst += a*scale element-wise.
func axpy(dst, a []float64, scale float64) {
	for i := range dst {
		dst[i] += a[i] * scale
	}
}

// MultiStartGrad runs LBFGSB from each starting point and returns the best
// result. Throughput-model fitting uses a handful of heuristic starts to
// avoid poor local minima in the RMSLE landscape. The returned Iters and
// Evals are the totals across all starts: what the answer cost.
func MultiStartGrad(obj Objective, starts [][]float64, b Bounds, opts LBFGSBOptions) Result {
	best := Result{F: math.Inf(1)}
	iters, evals := 0, 0
	for _, s := range starts {
		r := LBFGSB(obj, s, b, opts)
		iters += r.Iters
		evals += r.Evals
		if r.F < best.F {
			best = r
		}
	}
	best.Iters, best.Evals = iters, evals
	return best
}
