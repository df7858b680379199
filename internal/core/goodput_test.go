package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func refModel(phi float64) Model {
	return Model{
		Params:         refParams,
		Phi:            phi,
		M0:             128,
		MaxBatchPerGPU: 256,
	}
}

func TestEfficiencyAtM0IsOne(t *testing.T) {
	for _, phi := range []float64{0, 10, 1e4} {
		if e := Efficiency(phi, 128, 128); math.Abs(e-1) > 1e-12 {
			t.Errorf("Efficiency(phi=%v, m=m0) = %v, want 1", phi, e)
		}
	}
}

func TestEfficiencyKnownValues(t *testing.T) {
	// phi = 128, m0 = 128, m = 256: (128+128)/(128+256) = 2/3.
	if e := Efficiency(128, 128, 256); math.Abs(e-2.0/3.0) > 1e-12 {
		t.Errorf("Efficiency = %v, want 2/3", e)
	}
	// Infinite noise: always 1.
	if e := Efficiency(math.Inf(1), 128, 4096); e != 1 {
		t.Errorf("Efficiency(inf) = %v, want 1", e)
	}
	// Negative phi clamps to 0: pure signal, efficiency m0/m.
	if e := Efficiency(-3, 128, 256); math.Abs(e-0.5) > 1e-12 {
		t.Errorf("Efficiency(phi<0) = %v, want 0.5", e)
	}
}

func TestEfficiencyPanicsOnBadBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Efficiency(m0=0) did not panic")
		}
	}()
	Efficiency(1, 0, 128)
}

// Property: for m >= m0, efficiency ∈ (0, 1], decreasing in m, increasing
// in phi — the Sec. 3 invariants.
func TestEfficiencyProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m0 := 1 + rng.Intn(512)
		m := m0 + rng.Intn(8192)
		phi := rng.Float64() * 1e5
		e := Efficiency(phi, m0, m)
		if e <= 0 || e > 1+1e-12 {
			return false
		}
		if Efficiency(phi, m0, m+16) > e+1e-12 {
			return false
		}
		if Efficiency(phi*2+1, m0, m) < e-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickConfig(500)); err != nil {
		t.Error(err)
	}
}

func TestGoodputInfeasible(t *testing.T) {
	g := refModel(1000)
	if v := g.Goodput(SingleGPU, 64); v != 0 { // below m0
		t.Errorf("goodput below m0 = %v, want 0", v)
	}
	if v := g.Goodput(SingleGPU, 512); v != 0 { // above 1×256 memory cap
		t.Errorf("goodput above memory = %v, want 0", v)
	}
	if v := g.Goodput(Placement{0, 0}, 128); v != 0 {
		t.Errorf("goodput invalid placement = %v, want 0", v)
	}
}

func TestGoodputNeverExceedsThroughput(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Model{
			Params:         randParams(rng),
			Phi:            rng.Float64() * 1e4,
			M0:             32 + rng.Intn(256),
			MaxBatchPerGPU: 512,
		}
		pl := randPlacement(rng, 16, 4)
		lo, hi, ok := g.batchRange(pl)
		if !ok {
			return true
		}
		m := lo + rng.Intn(hi-lo+1)
		return g.Goodput(pl, m) <= g.Throughput(pl, m)+1e-9
	}
	if err := quick.Check(prop, testutil.QuickConfig(500)); err != nil {
		t.Error(err)
	}
}

func TestGoodputEqualsThroughputAtM0(t *testing.T) {
	g := refModel(700)
	if gp, tp := g.Goodput(SingleGPU, 128), g.Throughput(SingleGPU, 128); math.Abs(gp-tp) > 1e-9 {
		t.Errorf("goodput at m0 = %v, want throughput %v", gp, tp)
	}
}

func TestOptimalBatchUnimodalInterior(t *testing.T) {
	g := Model{
		Params:         refParams,
		Phi:            2000,
		M0:             128,
		MaxBatchPerGPU: 1 << 14,
	}
	pl := Placement{8, 2}
	m, gp, ok := g.OptimalBatch(pl)
	if !ok {
		t.Fatal("OptimalBatch infeasible")
	}
	if m <= g.M0 || m >= pl.GPUs*g.MaxBatchPerGPU {
		t.Errorf("expected interior optimum, got m = %d", m)
	}
	// Local maximality.
	if g.Goodput(pl, m-1) > gp || g.Goodput(pl, m+1) > gp {
		t.Errorf("m=%d not locally optimal: %v vs (%v, %v)",
			m, gp, g.Goodput(pl, m-1), g.Goodput(pl, m+1))
	}
}

func TestOptimalBatchRespectsGlobalCap(t *testing.T) {
	g := Model{
		Params:         refParams,
		Phi:            1e6, // huge noise: bigger is always better
		M0:             128,
		MaxBatchPerGPU: 4096,
		MaxBatchGlobal: 1000,
	}
	m, _, ok := g.OptimalBatch(Placement{8, 2})
	if !ok {
		t.Fatal("infeasible")
	}
	if m != 1000 {
		t.Errorf("optimal batch = %d, want pinned at global cap 1000", m)
	}
}

func TestOptimalBatchInfeasiblePlacement(t *testing.T) {
	g := Model{Params: refParams, Phi: 100, M0: 512, MaxBatchPerGPU: 256}
	// One GPU fits only 256 < m0 = 512.
	if _, _, ok := g.OptimalBatch(SingleGPU); ok {
		t.Error("expected infeasible when m0 exceeds single-GPU memory")
	}
	// Two GPUs fit exactly 512.
	if m, _, ok := g.OptimalBatch(Placement{2, 1}); !ok || m != 512 {
		t.Errorf("2-GPU optimum = %d ok=%v, want 512 true", m, ok)
	}
}

func TestSpeedupSingleGPUIsOne(t *testing.T) {
	for _, phi := range []float64{0, 100, 1e5} {
		g := refModel(phi)
		if s := g.Speedup(SingleGPU); math.Abs(s-1) > 1e-9 {
			t.Errorf("Speedup(1 GPU, phi=%v) = %v, want 1", phi, s)
		}
	}
}

func TestSpeedupInfeasibleZero(t *testing.T) {
	g := Model{Params: refParams, Phi: 100, M0: 1024, MaxBatchPerGPU: 256}
	// 2 GPUs fit only 512 < m0.
	if s := g.Speedup(Placement{2, 1}); s != 0 {
		t.Errorf("Speedup infeasible = %v, want 0", s)
	}
}

// Property: speedup is sublinear in GPUs (paper Sec. 4.2) and higher phi
// yields (weakly) better speedup at scale — noisier gradients tolerate
// larger batches, which utilize more GPUs.
func TestSpeedupSublinearProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Model{
			Params:         randParams(rng),
			Phi:            rng.Float64() * 1e4,
			M0:             32 + rng.Intn(128),
			MaxBatchPerGPU: 512,
		}
		k := 2 + rng.Intn(15)
		nodes := 1 + rng.Intn(k)
		s := g.Speedup(Placement{k, nodes})
		return s <= float64(k)+1e-6
	}
	if err := quick.Check(prop, testutil.QuickConfig(300)); err != nil {
		t.Error(err)
	}
}

func TestSpeedupHigherPhiScalesBetter(t *testing.T) {
	pl := Placement{16, 4}
	low := refModel(50)
	low.MaxBatchPerGPU = 1 << 13
	high := refModel(50000)
	high.MaxBatchPerGPU = 1 << 13
	if sl, sh := low.Speedup(pl), high.Speedup(pl); sh <= sl {
		t.Errorf("speedup with high phi %v <= low phi %v", sh, sl)
	}
}

func TestOptimalBatchGrowsWithPhi(t *testing.T) {
	// Paper Fig. 1b: later in training (higher phi) the most efficient
	// batch size grows.
	pl := Placement{8, 2}
	mk := func(phi float64) int {
		g := refModel(phi)
		g.MaxBatchPerGPU = 1 << 13
		m, _, _ := g.OptimalBatch(pl)
		return m
	}
	early, late := mk(200), mk(20000)
	if late <= early {
		t.Errorf("optimal batch should grow with phi: early=%d late=%d", early, late)
	}
}

func TestOptimalLRUsesAdaScaleGain(t *testing.T) {
	g := refModel(128)
	// At m = m0, gain 1: lr = eta0.
	if lr := g.OptimalLR(0.1, 128); math.Abs(lr-0.1) > 1e-12 {
		t.Errorf("lr at m0 = %v, want 0.1", lr)
	}
	// phi=128=m0, m=256: gain 4/3.
	if lr := g.OptimalLR(0.1, 256); math.Abs(lr-0.1*4/3) > 1e-12 {
		t.Errorf("lr = %v, want %v", lr, 0.1*4/3)
	}
}
