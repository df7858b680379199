package core

import (
	"math"
	"math/rand"
	"testing"
)

// genSamples produces observed samples from ground-truth params across a
// range of placements and batch sizes, with multiplicative noise.
func genSamples(rng *rand.Rand, truth Params, noise float64, maxPerNode int, placements []Placement) []Sample {
	var out []Sample
	for _, pl := range placements {
		for _, m := range []int{128, 256, 512, 1024, 2048} {
			if m/pl.GPUs < 1 {
				continue
			}
			ti := truth.TIter(pl, float64(m))
			if noise > 0 {
				ti *= 1 + noise*(rng.Float64()*2-1)
			}
			out = append(out, Sample{Placement: pl, Batch: m, TIter: ti})
		}
	}
	return out
}

var allPlacements = []Placement{
	{1, 1}, {2, 1}, {3, 1}, {4, 1},
	{4, 2}, {6, 2}, {8, 2}, {8, 4}, {12, 4}, {16, 4},
}

func TestFitRecoversCleanData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	truth := refParams
	samples := genSamples(rng, truth, 0, 4, allPlacements)
	got := Fit(samples, Params{}, Exploration{MaxGPUs: 16, MaxNodes: 4})
	if r := RMSLE(got, samples); r > 0.02 {
		t.Errorf("RMSLE on clean data = %v, want < 0.02", r)
	}
	// Predictions at held-out configurations should be close.
	for _, pl := range []Placement{{5, 2}, {10, 3}, {16, 4}} {
		for _, m := range []int{384, 768, 1536} {
			want := truth.TIter(pl, float64(m))
			pred := got.TIter(pl, float64(m))
			if math.Abs(pred-want)/want > 0.15 {
				t.Errorf("TIter(%v, %d): pred %v vs truth %v (>15%%)", pl, m, pred, want)
			}
		}
	}
}

func TestFitToleratesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	truth := refParams
	samples := genSamples(rng, truth, 0.1, 4, allPlacements)
	got := Fit(samples, Params{}, Exploration{MaxGPUs: 16, MaxNodes: 4})
	for _, pl := range []Placement{{4, 1}, {8, 2}, {16, 4}} {
		m := 1024
		want := truth.TIter(pl, float64(m))
		pred := got.TIter(pl, float64(m))
		if math.Abs(pred-want)/want > 0.25 {
			t.Errorf("TIter(%v, %d): pred %v vs truth %v (>25%% with 10%% noise)", pl, m, pred, want)
		}
	}
}

func TestFitEmptySamplesUsesPriors(t *testing.T) {
	got := Fit(nil, Params{}, Exploration{MaxGPUs: 1, MaxNodes: 1})
	if got.AlphaSyncLocal != 0 || got.AlphaSyncNode != 0 ||
		got.BetaSyncLocal != 0 || got.BetaSyncNode != 0 {
		t.Errorf("unexplored job should have zero sync params: %+v", got)
	}
	if got.Gamma < 1 {
		t.Errorf("gamma = %v, want >= 1", got.Gamma)
	}
}

func TestFitPriorFreezesSyncUntilExplored(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth := refParams
	// Only single-GPU data seen so far.
	samples := genSamples(rng, truth, 0, 4, []Placement{{1, 1}})
	got := Fit(samples, Params{}, Exploration{MaxGPUs: 1, MaxNodes: 1})
	if got.AlphaSyncLocal != 0 || got.BetaSyncLocal != 0 ||
		got.AlphaSyncNode != 0 || got.BetaSyncNode != 0 {
		t.Errorf("sync params not frozen at 0: %+v", got)
	}
	// The frozen model predicts perfect scaling: throughput at 8 GPUs
	// ~8x the single-GPU throughput at 8x batch.
	tp1 := got.Throughput(SingleGPU, 128)
	tp8 := got.Throughput(Placement{8, 2}, 1024)
	if math.Abs(tp8-8*tp1)/(8*tp1) > 0.01 {
		t.Errorf("optimistic prior violated: tp8 = %v, want ~%v", tp8, 8*tp1)
	}
}

func TestFitPriorRetrogressionFrozenAtTwoGPUs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	truth := refParams
	samples := genSamples(rng, truth, 0, 4, []Placement{{1, 1}, {2, 1}})
	got := Fit(samples, Params{}, Exploration{MaxGPUs: 2, MaxNodes: 1})
	if got.BetaSyncLocal != 0 || got.BetaSyncNode != 0 {
		t.Errorf("retrogression slopes not frozen with ≤2 GPUs: %+v", got)
	}
	if got.AlphaSyncLocal <= 0 {
		t.Errorf("αl should now be fit (> 0), got %v", got.AlphaSyncLocal)
	}
	if got.AlphaSyncNode != 0 {
		t.Errorf("αn should remain frozen with 1 node, got %v", got.AlphaSyncNode)
	}
}

func TestFitWithPrevSeedIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	truth := refParams
	samples := genSamples(rng, truth, 0.05, 4, allPlacements)
	first := Fit(samples, Params{}, Exploration{MaxGPUs: 16, MaxNodes: 4})
	second := Fit(samples, first, Exploration{MaxGPUs: 16, MaxNodes: 4})
	// Refitting with the previous fit as a seed must not be worse.
	if RMSLE(second, samples) > RMSLE(first, samples)+1e-9 {
		t.Errorf("refit got worse: %v > %v", RMSLE(second, samples), RMSLE(first, samples))
	}
}

func TestRMSLEZeroForExactModel(t *testing.T) {
	samples := genSamples(rand.New(rand.NewSource(1)), refParams, 0, 4, allPlacements)
	if r := RMSLE(refParams, samples); r > 1e-12 {
		t.Errorf("RMSLE of truth on clean data = %v, want rounding noise", r)
	}
	if r := RMSLE(refParams, nil); r != 0 {
		t.Errorf("RMSLE with no samples = %v, want 0", r)
	}
}

func TestExplorationObserve(t *testing.T) {
	var e Exploration
	e.Observe(Placement{4, 2})
	e.Observe(Placement{2, 1})
	if e.MaxGPUs != 4 || e.MaxNodes != 2 {
		t.Errorf("exploration = %+v, want {4 2}", e)
	}
}

func TestExplorationGPUCap(t *testing.T) {
	cases := []struct {
		max  int
		want int
	}{
		{0, 2}, {1, 2}, {2, 4}, {8, 16},
	}
	for _, c := range cases {
		e := Exploration{MaxGPUs: c.max}
		if got := e.GPUCap(); got != c.want {
			t.Errorf("GPUCap(max=%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestFitBoundsRespectGamma(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	samples := genSamples(rng, refParams, 0.2, 4, allPlacements)
	got := Fit(samples, Params{}, Exploration{MaxGPUs: 16, MaxNodes: 4})
	if got.Gamma < 1 || got.Gamma > 10 {
		t.Errorf("fitted gamma = %v, want in [1, 10]", got.Gamma)
	}
	if got.AlphaGrad < 0 || got.BetaGrad < 0 || got.AlphaSyncLocal < 0 ||
		got.BetaSyncLocal < 0 || got.AlphaSyncNode < 0 || got.BetaSyncNode < 0 {
		t.Errorf("fitted params negative: %+v", got)
	}
}
