package adascale

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestGainIdentityAtM0(t *testing.T) {
	for _, phi := range []float64{0, 1, 100, 1e6} {
		if g := Gain(phi, 128, 128); math.Abs(g-1) > 1e-12 {
			t.Errorf("Gain(phi=%v, m=m0) = %v, want 1", phi, g)
		}
	}
}

func TestGainZeroNoise(t *testing.T) {
	// With no gradient noise, a larger batch adds nothing: r = 1.
	if g := Gain(0, 128, 1024); g != 1 {
		t.Errorf("Gain(phi=0) = %v, want 1", g)
	}
}

func TestGainInfiniteNoise(t *testing.T) {
	// Pure noise: perfect linear scaling, r = m/m0.
	if g := Gain(math.Inf(1), 128, 1024); g != 8 {
		t.Errorf("Gain(phi=inf) = %v, want 8", g)
	}
}

func TestGainKnownValue(t *testing.T) {
	// phi = m0: r = (1+1)/(phi/m+1). With m = 2·m0: (2)/(1.5) = 4/3.
	got := Gain(128, 128, 256)
	want := 4.0 / 3.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Gain = %v, want %v", got, want)
	}
}

func TestGainNegativePhiClamped(t *testing.T) {
	if g := Gain(-5, 128, 256); g != 1 {
		t.Errorf("Gain(phi<0) = %v, want 1 (clamped to 0)", g)
	}
}

func TestGainPanicsOnBadBatch(t *testing.T) {
	for _, c := range []struct{ m0, m int }{{0, 1}, {1, 0}, {-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gain(m0=%d, m=%d) did not panic", c.m0, c.m)
				}
			}()
			Gain(1, c.m0, c.m)
		}()
	}
}

// Property: for m >= m0, 1 <= r_t <= m/m0 (the paper's bounds), and r_t is
// monotonically non-decreasing in both phi and m.
func TestGainBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m0 := 1 + rng.Intn(512)
		m := m0 + rng.Intn(8192)
		phi := rng.Float64() * 1e5
		r := Gain(phi, m0, m)
		if r < 1-1e-12 || r > float64(m)/float64(m0)+1e-12 {
			return false
		}
		// Monotone in phi.
		if Gain(phi*2+1, m0, m) < r-1e-12 {
			return false
		}
		// Monotone in m.
		if Gain(phi, m0, m+16) < r-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickConfig(300)); err != nil {
		t.Error(err)
	}
}

// gainFromMoments computes the gain directly from the gradient second
// moments, as in Eqn. 18 of the paper's appendix: r_t =
// (sigma² + mu²) / ((m0/m)·sigma² + mu²), with sigma² the variance of the
// batch-mean gradient at batch size m0 and mu² its squared norm.
func gainFromMoments(sigmaSq, muSq float64, m0, m int) float64 {
	den := float64(m0)/float64(m)*sigmaSq + muSq
	if den <= 0 {
		return float64(m) / float64(m0)
	}
	return (sigmaSq + muSq) / den
}

// Property: Eqn. 18 (moments form) and Eqn. 19 (noise-scale form) agree
// when phi = m0·sigma²/mu², as derived in the paper's appendix.
func TestGainFormEquivalenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m0 := 1 + rng.Intn(256)
		m := m0 + rng.Intn(4096)
		sigmaSq := rng.Float64() * 50
		muSq := 0.01 + rng.Float64()*10
		phi := float64(m0) * sigmaSq / muSq
		a := Gain(phi, m0, m)
		b := gainFromMoments(sigmaSq, muSq, m0, m)
		return math.Abs(a-b) < 1e-9*math.Max(1, a)
	}
	if err := quick.Check(prop, testutil.QuickConfig(300)); err != nil {
		t.Error(err)
	}
}

func TestGainFromMomentsZeroSignal(t *testing.T) {
	if g := gainFromMoments(1, 0, 128, 512); g != 4 {
		t.Errorf("gainFromMoments(mu²=0) = %v, want m/m0 = 4", g)
	}
}

func TestLearningRateScaling(t *testing.T) {
	if lr := LearningRate(0.1, 2.5); math.Abs(lr-0.25) > 1e-12 {
		t.Errorf("LearningRate = %v, want 0.25", lr)
	}
}

// AdaScale's LR never exceeds the linear scaling rule's LR and never drops
// below eta0 — the property that makes it safe across batch sizes.
func TestAdaScaleBetweenConstantAndLinearProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m0 := 1 + rng.Intn(256)
		m := m0 + rng.Intn(4096)
		phi := rng.Float64() * 1e4
		eta0 := 0.001 + rng.Float64()
		lr := LearningRate(eta0, Gain(phi, m0, m))
		return lr >= eta0-1e-12 && lr <= eta0*float64(m)/float64(m0)+1e-9
	}
	if err := quick.Check(prop, testutil.QuickConfig(300)); err != nil {
		t.Error(err)
	}
}

func TestScheduleAccumulatesProgress(t *testing.T) {
	s := NewSchedule(128, 0.1)
	// 10 steps at m0 with any phi: progress = 10 exactly.
	for i := 0; i < 10; i++ {
		lr := s.Step(500, 128)
		if math.Abs(lr-0.1) > 1e-12 {
			t.Errorf("step at m0: lr = %v, want eta0", lr)
		}
	}
	if p := s.Progress(); math.Abs(p-10) > 1e-12 {
		t.Errorf("progress = %v, want 10", p)
	}
}

func TestScheduleLargerBatchFasterProgress(t *testing.T) {
	a := NewSchedule(128, 0.1)
	b := NewSchedule(128, 0.1)
	for i := 0; i < 100; i++ {
		a.Step(1000, 128)
		b.Step(1000, 1024)
	}
	if b.Progress() <= a.Progress() {
		t.Errorf("larger batch progress %v <= smaller %v", b.Progress(), a.Progress())
	}
	// But not more than 8x faster (m/m0 bound).
	if b.Progress() > 8*a.Progress()+1e-9 {
		t.Errorf("progress %v exceeds m/m0 bound vs %v", b.Progress(), a.Progress())
	}
}

func TestSchedulePanicsOnBadM0(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSchedule(0, ...) did not panic")
		}
	}()
	NewSchedule(0, 0.1)
}
