package gns

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// synthGrad draws a batch-mean gradient estimate over batch examples from
// a population with true gradient mu (vector) and per-example coordinate
// variance exVar/dim each, so the total per-example variance is exVar.
func synthGrad(rng *rand.Rand, mu []float64, exVar float64, batch int) []float64 {
	dim := len(mu)
	sd := math.Sqrt(exVar / float64(dim) / float64(batch))
	g := make([]float64, dim)
	for i := range g {
		g[i] = mu[i] + rng.NormFloat64()*sd
	}
	return g
}

func makeMu(dim int, sqNorm float64) []float64 {
	mu := make([]float64, dim)
	per := math.Sqrt(sqNorm / float64(dim))
	for i := range mu {
		mu[i] = per
	}
	return mu
}

func TestFromReplicasErrors(t *testing.T) {
	if _, err := FromReplicas([][]float64{{1, 2}}, 8); err != ErrNeedTwoReplicas {
		t.Errorf("one replica: err = %v, want ErrNeedTwoReplicas", err)
	}
	if _, err := FromReplicas([][]float64{{1, 2}, {1}}, 8); err != ErrDimMismatch {
		t.Errorf("dim mismatch: err = %v, want ErrDimMismatch", err)
	}
}

func TestFromReplicasNoiseless(t *testing.T) {
	// Identical replica gradients: zero variance, sqnorm = |g|².
	g := []float64{3, 4}
	e, err := FromReplicas([][]float64{g, g, g, g}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.ExampleVar) > 1e-12 {
		t.Errorf("ExampleVar = %v, want 0", e.ExampleVar)
	}
	if math.Abs(e.SqNorm-25) > 1e-9 {
		t.Errorf("SqNorm = %v, want 25", e.SqNorm)
	}
	if e.NoiseScale() != 0 {
		t.Errorf("NoiseScale = %v, want 0", e.NoiseScale())
	}
}

func TestFromReplicasRecoversKnownScale(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const (
		dim     = 64
		sqNorm  = 4.0
		exVar   = 512.0 // phi = 128
		perRepl = 32
		k       = 8
		iters   = 3000
	)
	mu := makeMu(dim, sqNorm)
	tr := NewTracker(0.999)
	for it := 0; it < iters; it++ {
		local := make([][]float64, k)
		for r := range local {
			local[r] = synthGrad(rng, mu, exVar, perRepl)
		}
		e, err := FromReplicas(local, perRepl)
		if err != nil {
			t.Fatal(err)
		}
		tr.Observe(e)
	}
	wantPhi := exVar / sqNorm
	got := tr.NoiseScale()
	if math.Abs(got-wantPhi)/wantPhi > 0.15 {
		t.Errorf("smoothed phi = %v, want ~%v (15%%)", got, wantPhi)
	}
	st := tr.Stats()
	if math.Abs(st.SqNorm-sqNorm)/sqNorm > 0.15 {
		t.Errorf("smoothed mu² = %v, want ~%v", st.SqNorm, sqNorm)
	}
	if math.Abs(st.ExampleVar-exVar)/exVar > 0.15 {
		t.Errorf("smoothed S = %v, want ~%v", st.ExampleVar, exVar)
	}
}

// Property: the replica estimator is invariant (in expectation) to the
// batch size it is run at — phi estimated with different (K, batch)
// configurations agrees. This is the property Pollux relies on to predict
// efficiency at unseen batch sizes.
func TestFromReplicasBatchSizeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mu := makeMu(32, 9.0)
	const exVar = 900.0 // phi = 100
	configs := []struct{ k, perRepl int }{{2, 64}, {4, 32}, {8, 128}}
	var phis []float64
	for _, cfg := range configs {
		tr := NewTracker(0.999)
		for it := 0; it < 4000; it++ {
			local := make([][]float64, cfg.k)
			for r := range local {
				local[r] = synthGrad(rng, mu, exVar, cfg.perRepl)
			}
			e, _ := FromReplicas(local, cfg.perRepl)
			tr.Observe(e)
		}
		phis = append(phis, tr.NoiseScale())
	}
	want := exVar / 9.0
	for i, phi := range phis {
		if math.Abs(phi-want)/want > 0.2 {
			t.Errorf("config %d: phi = %v, want ~%v", i, phi, want)
		}
	}
}

func TestDiffEstimatorNeedsPrev(t *testing.T) {
	d := NewDiffEstimator(32)
	if _, err := d.Update([]float64{1, 2}); err != ErrNeedPrev {
		t.Errorf("first update: err = %v, want ErrNeedPrev", err)
	}
	if _, err := d.Update([]float64{1, 2}); err != nil {
		t.Errorf("second update: err = %v, want nil", err)
	}
}

func TestDiffEstimatorDimMismatch(t *testing.T) {
	d := NewDiffEstimator(32)
	d.Update([]float64{1, 2})
	if _, err := d.Update([]float64{1}); err != ErrDimMismatch {
		t.Errorf("err = %v, want ErrDimMismatch", err)
	}
}

func TestDiffEstimatorReset(t *testing.T) {
	d := NewDiffEstimator(32)
	d.Update([]float64{1, 2})
	d.Reset(64)
	if _, err := d.Update([]float64{1, 2, 3}); err != ErrNeedPrev {
		t.Errorf("after reset: err = %v, want ErrNeedPrev", err)
	}
	if d.batch != 64 {
		t.Errorf("batch after reset = %d, want 64", d.batch)
	}
}

func TestDiffEstimatorRecoversKnownScale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const (
		dim    = 64
		sqNorm = 4.0
		exVar  = 256.0 // phi = 64
		batch  = 128
	)
	mu := makeMu(dim, sqNorm)
	d := NewDiffEstimator(batch)
	tr := NewTracker(0.999)
	for it := 0; it < 5000; it++ {
		g := synthGrad(rng, mu, exVar, batch)
		e, err := d.Update(g)
		if err != nil {
			continue
		}
		tr.Observe(e)
	}
	wantPhi := exVar / sqNorm
	got := tr.NoiseScale()
	if math.Abs(got-wantPhi)/wantPhi > 0.2 {
		t.Errorf("smoothed phi = %v, want ~%v (20%%)", got, wantPhi)
	}
}

func TestTrackerPanicsOnBadDecay(t *testing.T) {
	for _, d := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTracker(%v) did not panic", d)
				}
			}()
			NewTracker(d)
		}()
	}
}

func TestTrackerEmptyDefaults(t *testing.T) {
	tr := NewTracker(0.9)
	if tr.NoiseScale() != 0 {
		t.Errorf("empty tracker phi = %v, want 0", tr.NoiseScale())
	}
	if tr.Ready() {
		t.Error("empty tracker reports Ready")
	}
	st := tr.Stats()
	if st.SqNorm != 0 || st.ExampleVar != 0 {
		t.Errorf("empty tracker stats = %+v, want zero", st)
	}
}

func TestTrackerReadyAfterEnoughSamples(t *testing.T) {
	tr := NewTracker(0.9)
	for i := 0; i < 10; i++ {
		tr.Observe(Estimate{SqNorm: 1, ExampleVar: 1})
	}
	if !tr.Ready() {
		t.Error("tracker not Ready after 10 observations")
	}
}

func TestTrackerClampsNegativeEstimates(t *testing.T) {
	tr := NewTracker(0.5)
	tr.Observe(Estimate{SqNorm: -5, ExampleVar: -3})
	if phi := tr.NoiseScale(); phi != 0 {
		t.Errorf("phi after negative-only observations = %v, want 0", phi)
	}
}

func TestEstimateNoiseScaleEdgeCases(t *testing.T) {
	if phi := (Estimate{SqNorm: 0, ExampleVar: 1}).NoiseScale(); !math.IsInf(phi, 1) {
		t.Errorf("zero signal: phi = %v, want +Inf", phi)
	}
	if phi := (Estimate{SqNorm: 1, ExampleVar: 0}).NoiseScale(); phi != 0 {
		t.Errorf("zero noise: phi = %v, want 0", phi)
	}
	if phi := (Estimate{SqNorm: 2, ExampleVar: 6}).NoiseScale(); phi != 3 {
		t.Errorf("phi = %v, want 3", phi)
	}
}

// Property: tracker's smoothed phi always lies within the hull of observed
// raw ratios for constant streams.
func TestTrackerConstantStreamProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sq := 0.1 + rng.Float64()*10
		ev := rng.Float64() * 100
		tr := NewTracker(0.9)
		for i := 0; i < 50; i++ {
			tr.Observe(Estimate{SqNorm: sq, ExampleVar: ev})
		}
		want := ev / sq
		return math.Abs(tr.NoiseScale()-want) < 1e-9*math.Max(1, want)
	}
	if err := quick.Check(prop, testutil.QuickConfig(100)); err != nil {
		t.Error(err)
	}
}

// Property: the replica estimator is unbiased for K identical-mean
// Gaussian replicas at randomized parameters. The band is the sample's own
// standard error, not a fixed fraction of the true value: at the noisy end
// of the parameter range (small |G|², large per-example variance, two
// small replicas) one estimate's deviation is dozens of times |G|², so any
// fixed relative band is a coin flip there. Six standard errors of the
// mean holds at every parameter draw, and a biased estimator is off by
// far more over this many repetitions.
func TestFromReplicasUnbiasedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sqNorm := 1 + rng.Float64()*9
		exVar := 10 + rng.Float64()*500
		k := 2 + rng.Intn(6)
		perRepl := 8 << rng.Intn(4)
		mu := makeMu(16, sqNorm)
		var sumSq, sumSq2, sumVar, sumVar2 float64
		const reps = 600
		for i := 0; i < reps; i++ {
			local := make([][]float64, k)
			for r := range local {
				local[r] = synthGrad(rng, mu, exVar, perRepl)
			}
			e, err := FromReplicas(local, perRepl)
			if err != nil {
				return false
			}
			sumSq += e.SqNorm
			sumSq2 += e.SqNorm * e.SqNorm
			sumVar += e.ExampleVar
			sumVar2 += e.ExampleVar * e.ExampleVar
		}
		within := func(sum, sum2, want float64) bool {
			mean := sum / reps
			stderr := math.Sqrt((sum2/reps - mean*mean) / (reps - 1))
			return math.Abs(mean-want) <= 6*stderr
		}
		return within(sumSq, sumSq2, sqNorm) && within(sumVar, sumVar2, exVar)
	}
	if err := quick.Check(prop, testutil.QuickConfig(20)); err != nil {
		t.Error(err)
	}
}
