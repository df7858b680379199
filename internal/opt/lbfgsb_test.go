package opt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func unbounded(n int) Bounds {
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := range lo {
		lo[i] = math.Inf(-1)
		hi[i] = math.Inf(1)
	}
	return Bounds{Lower: lo, Upper: hi}
}

// minimize runs one LBFGSB descent on f with central-difference gradients,
// the route MultiStart takes.
func minimize(f func([]float64) float64, x0 []float64, b Bounds, opts LBFGSBOptions) Result {
	return LBFGSB(&numeric{f: f, b: b}, x0, b, opts)
}

// pairObjective adapts a (value, gradient) pair of closures: the gradient
// is taken at a copy of the point Value last saw.
type pairObjective struct {
	f    func([]float64) float64
	grad func([]float64) []float64
	x    []float64
}

func (o *pairObjective) Value(x []float64) float64 {
	o.x = append(o.x[:0], x...)
	return o.f(x)
}

func (o *pairObjective) Grad(g []float64) { copy(g, o.grad(o.x)) }

func rosenbrock(x []float64) float64 {
	a, b := x[0], x[1]
	return (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
}

func TestLBFGSBQuadratic(t *testing.T) {
	// f(x) = sum (x_i - i)^2, minimum at x_i = i.
	f := func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			d := v - float64(i)
			s += d * d
		}
		return s
	}
	res := minimize(f, make([]float64, 5), unbounded(5), LBFGSBOptions{})
	for i, v := range res.X {
		if math.Abs(v-float64(i)) > 1e-4 {
			t.Errorf("x[%d] = %v, want %v", i, v, float64(i))
		}
	}
	if res.F > 1e-7 {
		t.Errorf("f = %v, want ~0", res.F)
	}
}

func TestLBFGSBRosenbrock(t *testing.T) {
	res := minimize(rosenbrock, []float64{-1.2, 1}, unbounded(2), LBFGSBOptions{MaxIter: 2000})
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("x = %v, want (1,1); f = %v", res.X, res.F)
	}
}

func TestLBFGSBActiveBound(t *testing.T) {
	// Unconstrained min at (-2, 3); box forces x0 >= 0.
	f := func(x []float64) float64 {
		return (x[0]+2)*(x[0]+2) + (x[1]-3)*(x[1]-3)
	}
	b := Bounds{Lower: []float64{0, -10}, Upper: []float64{10, 10}}
	res := minimize(f, []float64{5, 5}, b, LBFGSBOptions{})
	if math.Abs(res.X[0]) > 1e-5 {
		t.Errorf("x[0] = %v, want 0 (active bound)", res.X[0])
	}
	if math.Abs(res.X[1]-3) > 1e-4 {
		t.Errorf("x[1] = %v, want 3", res.X[1])
	}
}

func TestLBFGSBFrozenCoordinate(t *testing.T) {
	// Coordinate 1 frozen at 7 (lower == upper): the Pollux prior trick.
	f := func(x []float64) float64 {
		return x[0]*x[0] + (x[1]-1)*(x[1]-1)
	}
	b := Bounds{Lower: []float64{-10, 7}, Upper: []float64{10, 7}}
	res := minimize(f, []float64{3, 0}, b, LBFGSBOptions{})
	if res.X[1] != 7 {
		t.Errorf("frozen coordinate moved: x[1] = %v, want 7", res.X[1])
	}
	if math.Abs(res.X[0]) > 1e-5 {
		t.Errorf("x[0] = %v, want 0", res.X[0])
	}
}

func TestLBFGSBStartOutsideBox(t *testing.T) {
	f := func(x []float64) float64 { return x[0] * x[0] }
	b := Bounds{Lower: []float64{1}, Upper: []float64{5}}
	res := minimize(f, []float64{-100}, b, LBFGSBOptions{})
	if math.Abs(res.X[0]-1) > 1e-6 {
		t.Errorf("x = %v, want clamped optimum 1", res.X[0])
	}
}

func TestLBFGSBWithAnalyticGradient(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-4)*(x[0]-4) + 2*(x[1]+1)*(x[1]+1)
	}
	grad := func(x []float64) []float64 {
		return []float64{2 * (x[0] - 4), 4 * (x[1] + 1)}
	}
	res := LBFGSB(&pairObjective{f: f, grad: grad}, []float64{0, 0}, unbounded(2), LBFGSBOptions{})
	if math.Abs(res.X[0]-4) > 1e-6 || math.Abs(res.X[1]+1) > 1e-6 {
		t.Errorf("x = %v, want (4,-1)", res.X)
	}
}

func TestLBFGSBDoesNotModifyStart(t *testing.T) {
	x0 := []float64{9, 9}
	f := func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] }
	minimize(f, x0, unbounded(2), LBFGSBOptions{})
	if x0[0] != 9 || x0[1] != 9 {
		t.Errorf("x0 was modified: %v", x0)
	}
}

// Property: the returned minimizer always lies inside the box, and the
// objective value never exceeds the (clamped) starting value.
func TestLBFGSBPropertyInBoxAndImproves(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		lo := make([]float64, n)
		hi := make([]float64, n)
		target := make([]float64, n)
		start := make([]float64, n)
		for i := 0; i < n; i++ {
			lo[i] = rng.Float64()*10 - 5
			hi[i] = lo[i] + rng.Float64()*10
			target[i] = rng.Float64()*20 - 10
			start[i] = rng.Float64()*20 - 10
		}
		b := Bounds{Lower: lo, Upper: hi}
		f := func(x []float64) float64 {
			s := 0.0
			for i, v := range x {
				d := v - target[i]
				s += d * d
			}
			return s
		}
		res := minimize(f, start, b, LBFGSBOptions{})
		if !b.contains(res.X) {
			return false
		}
		clamped := make([]float64, n)
		copy(clamped, start)
		b.Clamp(clamped)
		return res.F <= f(clamped)+1e-12
	}
	if err := quick.Check(prop, testutil.QuickConfig(100)); err != nil {
		t.Error(err)
	}
}

// Property: for box-constrained quadratics the solution matches the
// coordinate-wise clamped analytic optimum (valid because the quadratic is
// separable).
func TestLBFGSBPropertySeparableQuadraticExact(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		lo := make([]float64, n)
		hi := make([]float64, n)
		target := make([]float64, n)
		w := make([]float64, n)
		for i := 0; i < n; i++ {
			lo[i] = rng.Float64()*4 - 2
			hi[i] = lo[i] + 0.5 + rng.Float64()*4
			target[i] = rng.Float64()*8 - 4
			w[i] = 0.5 + rng.Float64()*4
		}
		b := Bounds{Lower: lo, Upper: hi}
		f := func(x []float64) float64 {
			s := 0.0
			for i, v := range x {
				d := v - target[i]
				s += w[i] * d * d
			}
			return s
		}
		start := make([]float64, n)
		for i := range start {
			start[i] = (lo[i] + hi[i]) / 2
		}
		res := minimize(f, start, b, LBFGSBOptions{MaxIter: 500})
		for i := range res.X {
			want := math.Max(lo[i], math.Min(hi[i], target[i]))
			if math.Abs(res.X[i]-want) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickConfig(60)); err != nil {
		t.Error(err)
	}
}

func TestNumGradMatchesAnalytic(t *testing.T) {
	f := func(x []float64) float64 {
		return math.Sin(x[0]) + x[1]*x[1]*x[1]
	}
	x := []float64{0.7, 1.3}
	g, _ := NumGrad(f, x, unbounded(2), 1e-6)
	want0 := math.Cos(0.7)
	want1 := 3 * 1.3 * 1.3
	if math.Abs(g[0]-want0) > 1e-5 || math.Abs(g[1]-want1) > 1e-5 {
		t.Errorf("grad = %v, want [%v %v]", g, want0, want1)
	}
}

func TestNumGradAtBoundOneSided(t *testing.T) {
	f := func(x []float64) float64 { return 2 * x[0] }
	b := Bounds{Lower: []float64{0}, Upper: []float64{10}}
	g, _ := NumGrad(f, []float64{0}, b, 1e-6)
	if math.Abs(g[0]-2) > 1e-4 {
		t.Errorf("one-sided grad at bound = %v, want 2", g[0])
	}
}

func TestNumGradFrozenCoordinateZero(t *testing.T) {
	f := func(x []float64) float64 { return x[0] * 100 }
	b := Bounds{Lower: []float64{3}, Upper: []float64{3}}
	g, _ := NumGrad(f, []float64{3}, b, 1e-6)
	if g[0] != 0 {
		t.Errorf("grad of frozen coordinate = %v, want 0", g[0])
	}
}

func TestMultiStartPicksBest(t *testing.T) {
	// Double-well: minima near -2 (f=-1) and +2 (f=-3, global).
	f := func(x []float64) float64 {
		v := x[0]
		return 0.1*(v*v-4)*(v*v-4) - v
	}
	b := Bounds{Lower: []float64{-5}, Upper: []float64{5}}
	res := MultiStart(f, [][]float64{{-3}, {3}}, b, LBFGSBOptions{})
	if res.X[0] < 0 {
		t.Errorf("multistart picked the wrong well: x = %v", res.X[0])
	}
}

// orderObjective checks the call-order contract of Objective from the
// objective's side. It keeps the slice each Value was given, which is
// LBFGSB's own buffer, next to a copy of its contents, and fails the test
// when a Grad arrives after that buffer has moved on to another point.
// gradAt is the point of the last Grad and search the most Values seen
// between two Grads.
type orderObjective struct {
	t *testing.T
	f func([]float64) float64
	b Bounds

	arg, at []float64
	gradAt  []float64
	since   int
	search  int
}

func (o *orderObjective) Value(x []float64) float64 {
	o.arg = x
	o.at = append(o.at[:0], x...)
	o.since++
	return o.f(x)
}

func (o *orderObjective) Grad(g []float64) {
	o.t.Helper()
	if o.since == 0 {
		o.t.Fatal("Grad with no Value since the previous Grad")
	}
	for i := range o.at {
		if math.Float64bits(o.arg[i]) != math.Float64bits(o.at[i]) {
			o.t.Fatalf("Grad requested at %v, but the last Value was at %v", o.arg, o.at)
		}
	}
	o.search = max(o.search, o.since)
	o.since = 0
	o.gradAt = append(o.gradAt[:0], o.at...)
	numGrad(o.f, o.at, o.b, 1e-6, g)
}

// TestLBFGSBGradFollowsValueAtIterate pins the contract LBFGSB owes its
// objective: every Grad is for the point of the most recent Value, and that
// point is the iterate. The iterate after k iterations is the X of a run
// capped at MaxIter k (the trajectory is deterministic), so sweeping the
// cap checks each gradient of the run, not only the last.
func TestLBFGSBGradFollowsValueAtIterate(t *testing.T) {
	cases := []struct {
		name  string
		f     func([]float64) float64
		x0    []float64
		b     Bounds
		retry bool // takes the failed-line-search retry
	}{
		{name: "rosenbrock", f: rosenbrock, x0: []float64{-1.2, 1}, b: unbounded(2)},
		{name: "active bound", f: func(x []float64) float64 {
			return (x[0]+2)*(x[0]+2) + (x[1]-3)*(x[1]-3)
		}, x0: []float64{5, 5}, b: Bounds{Lower: []float64{0, -10}, Upper: []float64{10, 10}}},
		{name: "frozen coordinate", f: func(x []float64) float64 {
			return math.Exp(x[0]) - x[0] + (x[1]-1)*(x[1]-1)
		}, x0: []float64{3, 0}, b: Bounds{Lower: []float64{-10, 7}, Upper: []float64{10, 7}}},
		// A kink along x0 = x1: the quasi-Newton direction built across it
		// finds no decrease in 40 halvings and steepest descent takes over.
		{name: "kink", f: func(x []float64) float64 {
			return math.Abs(x[0]-x[1]) + 0.1*(x[0]*x[0]+x[1]*x[1])
		}, x0: []float64{0.3, 0.31}, b: unbounded(2), retry: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			full := minimize(c.f, c.x0, c.b, LBFGSBOptions{})
			if full.Iters < 2 {
				t.Fatalf("only %d iterations; the case checks nothing", full.Iters)
			}
			retried := false
			for k := 1; k <= full.Iters; k++ {
				o := &orderObjective{t: t, f: c.f, b: c.b}
				res := LBFGSB(o, c.x0, c.b, LBFGSBOptions{MaxIter: k})
				if res.Iters != k {
					t.Fatalf("MaxIter %d ran %d iterations", k, res.Iters)
				}
				for i := range res.X {
					if math.Float64bits(res.X[i]) != math.Float64bits(o.gradAt[i]) {
						t.Fatalf("after %d iterations the iterate is %v, the last gradient was taken at %v", k, res.X, o.gradAt)
					}
				}
				if f := c.f(res.X); math.Float64bits(f) != math.Float64bits(res.F) {
					t.Fatalf("after %d iterations F = %v, f(X) = %v", k, res.F, f)
				}
				retried = retried || o.search > 40
			}
			if retried != c.retry {
				t.Errorf("failed-line-search retry taken: %v, want %v", retried, c.retry)
			}
		})
	}
}

// rosenObjective is Rosenbrock with its analytic gradient, holding the
// point in place so the objective itself allocates nothing.
type rosenObjective struct{ a, b float64 }

func (o *rosenObjective) Value(x []float64) float64 {
	o.a, o.b = x[0], x[1]
	return rosenbrock(x)
}

func (o *rosenObjective) Grad(g []float64) {
	g[0] = -2*(1-o.a) - 400*o.a*(o.b-o.a*o.a)
	g[1] = 200 * (o.b - o.a*o.a)
}

// TestLBFGSBIterationsDoNotAllocate: a run allocates its workspace up
// front, so thirty times the iterations cost no further allocation, with an
// analytic objective and with the central-difference adapter.
func TestLBFGSBIterationsDoNotAllocate(t *testing.T) {
	x0 := []float64{-1.2, 1}
	b := unbounded(2)
	runs := map[string]func(maxIter int) Result{
		"analytic": func(maxIter int) Result {
			return LBFGSB(&rosenObjective{}, x0, b, LBFGSBOptions{MaxIter: maxIter})
		},
		"numeric": func(maxIter int) Result {
			return MultiStart(rosenbrock, [][]float64{x0}, b, LBFGSBOptions{MaxIter: maxIter})
		},
	}
	for name, run := range runs {
		if short, long := run(5), run(150); short.Iters != 5 || long.Iters <= 5*short.Iters {
			t.Fatalf("%s: %d and %d iterations; the caps do not separate the runs", name, short.Iters, long.Iters)
		}
		short := int(testing.AllocsPerRun(20, func() { run(5) }))
		long := int(testing.AllocsPerRun(20, func() { run(150) }))
		if short != long {
			t.Errorf("%s: %d allocations at MaxIter 5, %d at MaxIter 150", name, short, long)
		}
		t.Logf("%s: %d allocations per run", name, long)
	}
}
