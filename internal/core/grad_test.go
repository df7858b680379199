package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/opt"
)

// rmsleGrad returns the analytic gradient of RMSLE with respect to the
// θsys vector (Params.Vector order). At the (measure-zero) kinks of TIter
// the subgradient 0 is used for the sync parameters, matching the
// frozen-bounds behaviour, and at an exact fit (RMSLE below exactFit) the
// gradient is the zero vector.
//
// It is self-contained: a whole loss evaluation (lnTIter per sample), then
// the partials. rmsleLoss.Grad finishes these same expressions from what
// its Value kept, and the tests hold it to this reference bit for bit.
func rmsleGrad(p Params, samples []Sample) []float64 {
	grad := make([]float64, 7)
	if len(samples) == 0 {
		return grad
	}
	g := math.Max(p.Gamma, 1)
	sumSq := 0.0
	for _, s := range samples {
		tg := p.TGrad(float64(s.Batch), s.Placement.GPUs)
		ts := p.TSync(s.Placement)
		lnPred, rg, lnR, l1p := lnTIter(tg, ts, g)
		d := lnPred - math.Log(math.Max(s.TIter, predFloor))
		sumSq += d * d
		if lnPred <= lnPredFloor {
			continue
		}
		dTg, dTs, dG := lnTIterPartials(tg, ts, g, rg, lnR, l1p)
		s.accumulate(grad, d, dTg, dTs, dG, p.Gamma < 1)
	}
	n := float64(len(samples))
	rmsle := math.Sqrt(sumSq / n)
	if rmsle < exactFit {
		return make([]float64, 7)
	}
	inv := 1 / (rmsle * n)
	for i := range grad {
		grad[i] *= inv
	}
	return grad
}

// numGradRMSLE computes a finite-difference reference gradient. The
// bounds are wide except γ ≥ 1: TIter clamps γ there, so the reference
// must use the same one-sided difference the optimizer sees at the bound.
func numGradRMSLE(p Params, samples []Sample) []float64 {
	x := p.Vector()
	wide := opt.Bounds{
		Lower: []float64{-100, -100, -100, -100, -100, -100, 1},
		Upper: []float64{100, 100, 100, 100, 100, 100, 100},
	}
	g, _ := opt.NumGrad(func(v []float64) float64 {
		return RMSLE(ParamsFromVector(v), samples)
	}, x, wide, 1e-7)
	return g
}

func TestRMSLEGradMatchesNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := genSamples(rng, refParams, 0.1, 4, allPlacements)
	points := []Params{
		refParams,
		{AlphaGrad: 0.3, BetaGrad: 0.002, AlphaSyncLocal: 0.2, BetaSyncLocal: 0.01,
			AlphaSyncNode: 0.4, BetaSyncNode: 0.02, Gamma: 1.7},
		{AlphaGrad: 0.05, BetaGrad: 0.01, AlphaSyncLocal: 0.01, BetaSyncLocal: 0.001,
			AlphaSyncNode: 0.02, BetaSyncNode: 0.002, Gamma: 4.2},
		// Gamma at its lower bound of 1 (the no-overlap sum).
		{AlphaGrad: 0.1, BetaGrad: 0.001, AlphaSyncLocal: 0.1, BetaSyncLocal: 0.005,
			AlphaSyncNode: 0.2, BetaSyncNode: 0.01, Gamma: 1},
	}
	for pi, p := range points {
		got := rmsleGrad(p, samples)
		want := numGradRMSLE(p, samples)
		for i := range want {
			diff := math.Abs(got[i] - want[i])
			scale := math.Max(1, math.Abs(want[i]))
			if diff/scale > 1e-4 {
				t.Errorf("point %d coord %d: analytic %v vs numerical %v", pi, i, got[i], want[i])
			}
		}
	}
}

// TestRMSLEGradSumFaces: at γ = 1 the γ-mean degenerates to tg + ts,
// whose slope is 1 in both arguments even on the tg = 0 and ts = 0
// faces — neither family of parameters may lose its gradient there.
func TestRMSLEGradSumFaces(t *testing.T) {
	samples := []Sample{
		{Placement: Placement{GPUs: 4, Nodes: 2}, Batch: 512, TIter: 0.5},
		{Placement: Placement{GPUs: 8, Nodes: 2}, Batch: 512, TIter: 0.4},
	}
	onTg := Params{AlphaGrad: 0, BetaGrad: 0, AlphaSyncNode: 0.2, Gamma: 1}
	if g := rmsleGrad(onTg, samples); g[0] == 0 || g[1] == 0 {
		t.Errorf("tg=0 face at γ=1: grad-time gradient = (%v, %v), want nonzero", g[0], g[1])
	}
	onTs := Params{AlphaGrad: 0.2, BetaGrad: 0.001, Gamma: 1}
	if g := rmsleGrad(onTs, samples); g[4] == 0 {
		t.Errorf("ts=0 face at γ=1: sync gradient = %v, want nonzero", g[4])
	}
}

func TestRMSLEGradZeroCases(t *testing.T) {
	if g := rmsleGrad(refParams, nil); len(g) != 7 {
		t.Fatalf("gradient length = %d, want 7", len(g))
	}
	// Exact fit: RMSLE is rounding noise of the log-space evaluation, and the
	// gradient must be the zero vector, not that noise normalised by itself.
	samples := genSamples(rand.New(rand.NewSource(2)), refParams, 0, 4, allPlacements)
	for i, gi := range rmsleGrad(refParams, samples) {
		if gi != 0 || math.IsNaN(gi) {
			t.Errorf("coord %d of exact-fit gradient = %v, want 0", i, gi)
		}
	}
}

// TestRMSLEGradSingleGPU checks that sync-parameter partials vanish when
// no sample ever synchronized (K = 1), so frozen coordinates stay frozen.
func TestRMSLEGradSingleGPU(t *testing.T) {
	samples := []Sample{
		{Placement: SingleGPU, Batch: 128, TIter: 0.2},
		{Placement: SingleGPU, Batch: 256, TIter: 0.35},
	}
	g := rmsleGrad(refParams, samples)
	for _, i := range []int{2, 3, 4, 5} {
		if g[i] != 0 {
			t.Errorf("sync coord %d gradient = %v, want 0 for single-GPU samples", i, g[i])
		}
	}
}

// TestFitEscapesZeroSyncFace: for γ > 1 the RMSLE surface is genuinely
// flat in the sync directions at sync = 0, so a warm-started fit whose
// incumbent has zero sync parameters could never learn real sync costs
// by gradient steps alone. Fit must recover them anyway (via the
// sync-heavy extra start) once synchronization has been observed.
func TestFitEscapesZeroSyncFace(t *testing.T) {
	truth := Params{
		AlphaGrad: 0.05, BetaGrad: 0.001,
		AlphaSyncLocal: 0.08, BetaSyncLocal: 0.004,
		AlphaSyncNode: 0.2, BetaSyncNode: 0.01,
		Gamma: 2,
	}
	samples := genSamples(rand.New(rand.NewSource(3)), truth, 0, 4, allPlacements)
	// The incumbent fit is what a job has after training on one GPU:
	// gradient terms learned, sync parameters still frozen at zero.
	prev := Params{AlphaGrad: 0.06, BetaGrad: 0.0012, Gamma: 1.5}
	got := Fit(samples, prev, Exploration{MaxGPUs: 16, MaxNodes: 4})
	if got.AlphaSyncLocal == 0 && got.AlphaSyncNode == 0 {
		t.Fatalf("fit stuck on the zero-sync face: %+v", got)
	}
	if r := RMSLE(got, samples); r > 0.05 {
		t.Errorf("warm-started fit RMSLE = %v, want < 0.05 on clean data", r)
	}
}

// numericLoss is refLoss with a central-difference gradient (opt.NumGrad)
// inside the box: the fit's objective before the analytic gradient.
type numericLoss struct {
	refLoss
	b opt.Bounds
}

func (l *numericLoss) Grad(g []float64) {
	ng, _ := opt.NumGrad(func(v []float64) float64 {
		return RMSLE(ParamsFromVector(v), l.samples)
	}, l.x, l.b, 1e-6)
	copy(g, ng)
}

// TestFitWithAnalyticGradMatchesNumeric ensures the analytic-gradient fit
// lands on (essentially) the same optimum as the numerical-gradient path
// it replaced.
func TestFitWithAnalyticGradMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	samples := genSamples(rng, refParams, 0.05, 4, allPlacements)
	explored := Exploration{MaxGPUs: 16, MaxNodes: 4}

	analytic := Fit(samples, Params{}, explored)

	bounds := explored.fitBounds()
	dv := defaultParams(samples).Vector()
	bounds.Clamp(dv)
	hv := defaultParams(samples)
	hv.AlphaSyncLocal, hv.AlphaSyncNode = 0.05, 0.1
	hv.Gamma = 3
	h := hv.Vector()
	bounds.Clamp(h)
	loss := &numericLoss{refLoss: refLoss{samples: samples}, b: bounds}
	numeric := opt.MultiStartGrad(loss, [][]float64{dv, h}, bounds, opt.LBFGSBOptions{MaxIter: 150})

	ra, rn := RMSLE(analytic, samples), numeric.F
	if ra > rn*1.05+1e-6 {
		t.Errorf("analytic-gradient fit RMSLE %v noticeably worse than numeric %v", ra, rn)
	}
}
