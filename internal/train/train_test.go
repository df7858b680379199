package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestSynthesizeLinearShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds, wTrue := SynthesizeLinear(rng, 100, 8, 0.1)
	if ds.Len() != 100 || len(wTrue) != 8 || len(ds.X[0]) != 8 {
		t.Fatalf("shapes wrong: n=%d dim=%d", ds.Len(), len(ds.X[0]))
	}
	// Labels correlate with x·wTrue.
	loss := FullLoss(LeastSquares{}, wTrue, ds)
	zero := FullLoss(LeastSquares{}, make([]float64, 8), ds)
	if loss >= zero {
		t.Errorf("true weights loss %v not below zero-weights loss %v", loss, zero)
	}
}

func TestLeastSquaresGradMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := []float64{0.5, -1.2, 2.0}
	w := []float64{0.1, 0.3, -0.7}
	y := 0.9
	_ = rng
	g := make([]float64, 3)
	LeastSquares{}.AddGrad(g, w, x, y)
	const h = 1e-6
	for i := range w {
		wp := append([]float64(nil), w...)
		wm := append([]float64(nil), w...)
		wp[i] += h
		wm[i] -= h
		num := (LeastSquares{}.Loss(wp, x, y) - LeastSquares{}.Loss(wm, x, y)) / (2 * h)
		if math.Abs(num-g[i]) > 1e-5 {
			t.Errorf("grad[%d] = %v, numeric %v", i, g[i], num)
		}
	}
}

func TestRunConvergesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds, _ := SynthesizeLinear(rng, 2048, 16, 0.2)
	w0 := make([]float64, 16)
	noiseFloor := 0.2 * 0.2 / 2
	w, stats, err := Run(LeastSquares{}, ds, w0, Config{
		Replicas: 4, Batch: 64, Eta0: 0.05, UseAdaScale: true,
		TargetLoss: noiseFloor * 1.3, MaxSteps: 5000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ReachedTarget {
		t.Fatalf("did not reach target: final loss %v", stats.FinalLoss)
	}
	if len(w) != 16 {
		t.Fatalf("weights length %d", len(w))
	}
	if stats.Phi <= 0 {
		t.Errorf("measured phi = %v, want > 0", stats.Phi)
	}
}

func TestRunSingleReplicaUsesDiffEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, _ := SynthesizeLinear(rng, 1024, 8, 0.5)
	_, stats, err := Run(LeastSquares{}, ds, make([]float64, 8), Config{
		Replicas: 1, Batch: 16, Eta0: 0.05, UseAdaScale: true,
		MaxSteps: 600, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Phi <= 0 {
		t.Errorf("single-replica phi = %v, want > 0 (differenced estimator)", stats.Phi)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	ds := Dataset{X: [][]float64{{1}}, Y: []float64{1}}
	if _, _, err := Run(LeastSquares{}, ds, []float64{0}, Config{Replicas: 3, Batch: 32}); err == nil {
		t.Error("indivisible batch accepted")
	}
	if _, _, err := Run(LeastSquares{}, Dataset{}, []float64{0}, Config{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestPhiGrowsDuringTraining(t *testing.T) {
	// Sec. 2.2: the noise scale tends to grow during training as the
	// signal (the true gradient) shrinks near the optimum while the
	// per-example noise stays. Verify this emerges from real SGD.
	rng := rand.New(rand.NewSource(8))
	ds, _ := SynthesizeLinear(rng, 4096, 16, 0.5)
	_, stats, err := Run(LeastSquares{}, ds, make([]float64, 16), Config{
		Replicas: 8, Batch: 64, Eta0: 0.05, UseAdaScale: false,
		MaxSteps: 2000, EvalEvery: 50, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.PhiTrace) < 4 {
		t.Fatalf("phi trace too short: %d", len(stats.PhiTrace))
	}
	early := stats.PhiTrace[1] // skip the cold EMA
	late := stats.PhiTrace[len(stats.PhiTrace)-1]
	if late <= early*2 {
		t.Errorf("phi did not grow during training: early %v late %v", early, late)
	}
}

// The end-to-end validation of Eqn. 7 on real SGD: the ratio of examples
// needed to reach a fixed loss at batch m vs batch m0 should approximate
// 1/EFFICIENCY(phi, m0, m) with phi measured during training.
func TestEfficiencyPredictsExamplesToTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run convergence experiment")
	}
	rng := rand.New(rand.NewSource(9))
	const dim = 16
	ds, _ := SynthesizeLinear(rng, 8192, dim, 1.0)
	target := 1.0*1.0/2*1.2 + 0.03 // 20% above the noise floor plus slack

	runAt := func(batch int) Stats {
		_, stats, err := Run(LeastSquares{}, ds, make([]float64, dim), Config{
			Replicas: 4, Batch: batch, M0: 16, Eta0: 0.02, UseAdaScale: true,
			TargetLoss: target, MaxSteps: 20000, EvalEvery: 10, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.ReachedTarget {
			t.Fatalf("batch %d never reached target (loss %v)", batch, stats.FinalLoss)
		}
		return stats
	}

	base := runAt(16)
	big := runAt(128)

	// Predicted examples ratio from Eqn. 7 with the measured phi.
	phi := (base.Phi + big.Phi) / 2
	eff := core.Efficiency(phi, 16, 128)
	predicted := 1 / eff
	actual := float64(big.ExamplesProcessed) / float64(base.ExamplesProcessed)

	if actual < 1 {
		t.Logf("large batch needed fewer examples (%v); phi very large", actual)
	}
	t.Logf("examples: m0=16 -> %d, m=128 -> %d; actual ratio %.2f, Eqn.7 predicted %.2f (phi %.0f)",
		base.ExamplesProcessed, big.ExamplesProcessed, actual, predicted, phi)
	ratio := actual / predicted
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("examples ratio %v vs Eqn.7 prediction %v (phi=%v): off by %vx",
			actual, predicted, phi, ratio)
	}
}
