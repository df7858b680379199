package opt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestGoldenSectionMaxQuadratic(t *testing.T) {
	cases := []struct {
		name     string
		peak     float64
		lo, hi   float64
		wantTol  float64
		scale    float64
		offsetup float64
	}{
		{"centered", 3.0, 0, 10, 1e-5, 1, 0},
		{"left-edge", 0.0, 0, 10, 1e-5, 2, 5},
		{"right-edge", 10.0, 0, 10, 1e-5, 0.5, -2},
		{"tiny-interval", 1.5, 1, 2, 1e-6, 1, 0},
		{"negative-domain", -4.0, -10, -1, 1e-5, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := func(x float64) float64 {
				return tc.offsetup - tc.scale*(x-tc.peak)*(x-tc.peak)
			}
			x, fx := GoldenSectionMax(f, tc.lo, tc.hi, 1e-9)
			if math.Abs(x-tc.peak) > tc.wantTol {
				t.Errorf("argmax = %v, want %v", x, tc.peak)
			}
			if fx < f(tc.peak)-1e-9 {
				t.Errorf("max = %v, want >= %v", fx, f(tc.peak))
			}
		})
	}
}

func TestGoldenSectionMaxSwappedBounds(t *testing.T) {
	f := func(x float64) float64 { return -(x - 2) * (x - 2) }
	x, _ := GoldenSectionMax(f, 10, 0, 1e-9)
	if math.Abs(x-2) > 1e-5 {
		t.Errorf("argmax with swapped bounds = %v, want 2", x)
	}
}

func TestGoldenSectionMaxNonSmooth(t *testing.T) {
	// Unimodal but non-differentiable at the peak.
	f := func(x float64) float64 { return -math.Abs(x - 1.25) }
	x, _ := GoldenSectionMax(f, 0, 4, 1e-9)
	if math.Abs(x-1.25) > 1e-5 {
		t.Errorf("argmax = %v, want 1.25", x)
	}
}

func TestGoldenSectionMin(t *testing.T) {
	f := func(x float64) float64 { return (x - 7) * (x - 7) }
	x, fx := GoldenSectionMin(f, 0, 20, 1e-9)
	if math.Abs(x-7) > 1e-5 {
		t.Errorf("argmin = %v, want 7", x)
	}
	if fx > 1e-8 {
		t.Errorf("min value = %v, want ~0", fx)
	}
}

// Property: for random unimodal quadratics, golden-section recovers the
// peak (clamped to the interval) within tolerance.
func TestGoldenSectionMaxProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		peak := rng.Float64()*20 - 10
		lo := peak - 1 - rng.Float64()*10
		hi := peak + 1 + rng.Float64()*10
		f := func(x float64) float64 { return -(x - peak) * (x - peak) }
		x, _ := GoldenSectionMax(f, lo, hi, 1e-10)
		return math.Abs(x-peak) < 1e-4
	}
	if err := quick.Check(prop, testutil.QuickConfig(200)); err != nil {
		t.Error(err)
	}
}

func TestGoldenSectionMaxInt(t *testing.T) {
	cases := []struct {
		name   string
		peak   int
		lo, hi int
	}{
		{"mid", 37, 0, 100},
		{"lo-edge", 0, 0, 100},
		{"hi-edge", 100, 0, 100},
		{"small-range", 3, 1, 5},
		{"single-point", 4, 4, 4},
		{"two-points", 9, 8, 9},
		{"large-range", 51234, 1, 100000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := func(m int) float64 {
				d := float64(m - tc.peak)
				return -d * d
			}
			x, fx := GoldenSectionMaxInt(f, tc.lo, tc.hi)
			if x != tc.peak {
				t.Errorf("argmax = %d, want %d", x, tc.peak)
			}
			if fx != 0 {
				t.Errorf("max = %v, want 0", fx)
			}
		})
	}
}

func TestGoldenSectionMaxIntSwapped(t *testing.T) {
	f := func(m int) float64 { return -math.Abs(float64(m - 12)) }
	x, _ := GoldenSectionMaxInt(f, 50, 0)
	if x != 12 {
		t.Errorf("argmax with swapped bounds = %d, want 12", x)
	}
}

// Property: integer golden-section is exact against brute force on random
// unimodal functions with plateaus.
func TestGoldenSectionMaxIntProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lo := rng.Intn(50)
		hi := lo + 1 + rng.Intn(2000)
		peak := lo + rng.Intn(hi-lo+1)
		scale := 0.5 + rng.Float64()*3
		f := func(m int) float64 {
			return -scale * math.Abs(float64(m-peak))
		}
		x, fx := GoldenSectionMaxInt(f, lo, hi)
		bx, bfx := scanMaxInt(f, lo, hi)
		//pollux:floateq-ok both sides evaluate f at the same integer argument, so equality is exact
		return x == bx && fx == bfx
	}
	if err := quick.Check(prop, testutil.QuickConfig(100)); err != nil {
		t.Error(err)
	}
}

// A goodput-shaped objective: increasing throughput saturating in m times a
// decreasing efficiency term. Verifies the search handles the actual curve
// family it is used on.
func TestGoldenSectionGoodputShape(t *testing.T) {
	phi := 1200.0
	m0 := 128.0
	f := func(m float64) float64 {
		throughput := m / (0.01 + 0.0001*m) // saturating
		eff := (phi + m0) / (phi + m)
		return throughput * eff
	}
	x, _ := GoldenSectionMax(f, m0, 32768, 1e-6)
	// Check it is a true local max vs neighbours.
	if f(x) < f(x-1) || f(x) < f(x+1) {
		t.Errorf("x=%v is not a local max: f(x)=%v f(x-1)=%v f(x+1)=%v", x, f(x), f(x-1), f(x+1))
	}
	if x <= m0 || x >= 32768 {
		t.Errorf("expected interior maximum, got %v", x)
	}
}
