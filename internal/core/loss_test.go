package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/opt"
	"repro/internal/testutil"
)

// refLoss is the closure pair the fit drove L-BFGS with before rmsleLoss
// fused them — a loss that calls Params.TIter per sample and a gradient
// that is RMSLEGrad from scratch — as an opt.Objective. It is the oracle
// Fit and FitWarm must repeat.
type refLoss struct {
	samples []Sample
	logObs  []float64
	x       []float64
}

func newRefLoss(samples []Sample) *refLoss {
	l := &refLoss{samples: samples, logObs: make([]float64, len(samples))}
	for i, s := range samples {
		l.logObs[i] = math.Log(math.Max(s.TIter, 1e-12))
	}
	return l
}

func (l *refLoss) Value(v []float64) float64 {
	l.x = append(l.x[:0], v...)
	p := ParamsFromVector(v)
	sum := 0.0
	for i, s := range l.samples {
		pred := p.TIter(s.Placement, float64(s.Batch))
		d := math.Log(math.Max(pred, 1e-12)) - l.logObs[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(l.samples)))
}

func (l *refLoss) Grad(g []float64) {
	copy(g, RMSLEGrad(ParamsFromVector(l.x), l.samples))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVector(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// jitter scales every θsys parameter by up to ±frac, keeping γ ≥ 1.
func jitter(rng *rand.Rand, p Params, frac float64) Params {
	v := p.Vector()
	for i := range v {
		v[i] *= 1 + frac*(rng.Float64()*2-1)
	}
	v[6] = math.Max(v[6], 1)
	return ParamsFromVector(v)
}

// TestRMSLELossMatchesReferenceBitForBit holds the fused objective to RMSLE
// and RMSLEGrad on every face of the model: single-GPU samples and sync
// parameters frozen at zero (ts = 0), tg = 0, γ at and below its clamp, a
// prediction under the 1e-12 floor, and an exact fit. One loss object
// visits all the points, so what an earlier Value left behind must not
// reach a later Grad.
func TestRMSLELossMatchesReferenceBitForBit(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := jitter(rng, refParams, 0.5)
		noise := 0.2
		if rng.Intn(3) == 0 {
			noise = 0 // truth fits exactly: zero loss, zero gradient
		}
		maxGPUs := 16
		if rng.Intn(3) == 0 {
			maxGPUs = 1
		}
		samples := make([]Sample, 1+rng.Intn(40))
		for i := range samples {
			k := 1 + rng.Intn(maxGPUs)
			pl := Placement{GPUs: k, Nodes: 1 + rng.Intn(min(k, 4))}
			m := k * (1 + rng.Intn(512))
			samples[i] = Sample{Placement: pl, Batch: m,
				TIter: truth.TIter(pl, float64(m)) * (1 + noise*(rng.Float64()*2-1))}
		}

		zeroSync := jitter(rng, truth, 0.3)
		zeroSync.AlphaSyncLocal, zeroSync.BetaSyncLocal = 0, 0
		zeroSync.AlphaSyncNode, zeroSync.BetaSyncNode = 0, 0
		gammaOne := jitter(rng, truth, 0.3)
		gammaOne.Gamma = 1
		zeroSyncGammaOne := zeroSync
		zeroSyncGammaOne.Gamma = 1
		gammaLow := jitter(rng, truth, 0.3)
		gammaLow.Gamma = rng.Float64()
		zeroGrad := jitter(rng, truth, 0.3)
		zeroGrad.AlphaGrad, zeroGrad.BetaGrad = 0, 0
		points := []Params{
			jitter(rng, truth, 0.3), truth, zeroSync, gammaOne, zeroSyncGammaOne, gammaLow, zeroGrad,
			{AlphaGrad: 1e-14, Gamma: 2}, // single-GPU predictions under the floor
			{Gamma: 1.5},                 // every prediction zero
			jitter(rng, truth, 0.3),
		}

		loss := newRMSLELoss(samples)
		grad := make([]float64, 7)
		ok := true
		for i, p := range points {
			if got, want := loss.Value(p.Vector()), RMSLE(p, samples); !sameBits(got, want) {
				t.Errorf("seed %d point %d %+v: Value = %v, RMSLE = %v", seed, i, p, got, want)
				ok = false
			}
			for j := range grad {
				grad[j] = math.NaN() // Grad must overwrite, not add to, the buffer
			}
			loss.Grad(grad)
			if want := RMSLEGrad(p, samples); !sameVector(grad, want) {
				t.Errorf("seed %d point %d %+v:\n Grad      = %v\n RMSLEGrad = %v", seed, i, p, grad, want)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(prop, testutil.QuickConfig(200)); err != nil {
		t.Error(err)
	}
}

// tailSamples draws a profile shaped like the ones behind most of a trace's
// fits: a job that climbed through a few small placements and now sits on
// one large one while its agent keeps re-tuning the batch size, so nearly
// every sample is one more batch size on that placement. Samples come in
// the agent's (GPUs, nodes, batch) order.
func tailSamples(rng *rand.Rand) (samples []Sample, truth Params, explored Exploration) {
	truth = jitter(rng, refParams, 0.3)
	add := func(pl Placement, m int) {
		ti := truth.TIter(pl, float64(m)) * (1 + 0.03*(rng.Float64()*2-1))
		samples = append(samples, Sample{Placement: pl, Batch: m, TIter: ti})
		explored.Observe(pl)
	}
	for _, pl := range []Placement{{1, 1}, {2, 1}, {4, 1}, {8, 2}} {
		m := 128 * pl.GPUs
		for i := 1 + rng.Intn(3); i > 0; i-- {
			add(pl, m)
			m += 1 + rng.Intn(64)
		}
	}
	big := Placement{GPUs: 16 * (1 + rng.Intn(4))}
	big.Nodes = big.GPUs / 4
	m := 32 * big.GPUs
	for i := 60 + rng.Intn(241); i > 0; i-- {
		add(big, m)
		m += 1 + rng.Intn(48)
	}
	return samples, truth, explored
}

func sameResult(t *testing.T, what string, got, want opt.Result) bool {
	t.Helper()
	if !sameVector(got.X, want.X) || !sameBits(got.F, want.F) || got.Evals != want.Evals || got.Iters != want.Iters {
		t.Errorf("%s:\n fused  %+v\n oracle %+v", what, got, want)
		return false
	}
	return true
}

// TestFitRepeatsClosurePairOracle: on tail-shaped profiles with a warm
// incumbent, Fit and FitWarm land on the same θsys, loss, evaluation and
// iteration counts as the reference closure pair through the same L-BFGS.
func TestFitRepeatsClosurePairOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a few hundred full fits")
	}
	iters := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		samples, truth, explored := tailSamples(rng)
		prev := jitter(rng, truth, 0.1)
		switch rng.Intn(6) {
		case 0: // the incumbent of a job that has only run on one GPU
			prev.AlphaSyncLocal, prev.BetaSyncLocal, prev.AlphaSyncNode, prev.BetaSyncNode = 0, 0, 0, 0
		case 1: // a cold fit
			prev = Params{}
		}

		want := fit(newRefLoss(samples), samples, prev, explored)
		ok := sameResult(t, "Fit", fit(newRMSLELoss(samples), samples, prev, explored), want)
		if got := Fit(samples, prev, explored); got != ParamsFromVector(want.X) {
			t.Errorf("seed %d: Fit = %+v, oracle %+v", seed, got, ParamsFromVector(want.X))
			ok = false
		}
		iters += want.Iters

		warm := ParamsFromVector(want.X)
		samples[len(samples)-1].TIter *= 1.02 // an average that moved since
		want = fitWarm(newRefLoss(samples), warm, explored)
		ok = sameResult(t, "FitWarm", fitWarm(newRMSLELoss(samples), warm, explored), want) && ok
		if got := FitWarm(samples, warm, explored); got != ParamsFromVector(want.X) {
			t.Errorf("seed %d: FitWarm = %+v, oracle %+v", seed, got, ParamsFromVector(want.X))
			ok = false
		}
		return ok
	}
	const sets = 60
	if err := quick.Check(prop, testutil.QuickConfig(sets)); err != nil {
		t.Error(err)
	}
	if iters < 20*sets {
		t.Errorf("%d L-BFGS iterations over %d fits: the descents are too short to compare anything", iters, sets)
	}
}
