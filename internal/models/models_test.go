package models

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestZooHasFiveWorkloads(t *testing.T) {
	if got := len(Zoo()); got != 5 {
		t.Fatalf("zoo size = %d, want 5 (Table 1)", got)
	}
}

func TestZooFractionsSumToOne(t *testing.T) {
	sum := 0.0
	for _, s := range Zoo() {
		sum += s.Frac
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("workload fractions sum to %v, want 1", sum)
	}
}

func TestZooGPUTimeMatchesCategory(t *testing.T) {
	// Each category's [lo, hi) GPU-time range in hours (Table 1).
	bounds := map[Category][2]float64{Small: {0, 1}, Medium: {1, 10}, Large: {10, 100}, XLarge: {100, 1000}}
	for _, s := range Zoo() {
		lo, hi := bounds[s.Category][0], bounds[s.Category][1]
		h := s.GPUTimeHours()
		if h < lo || h >= hi {
			t.Errorf("%s: GPU-time %.2f h outside %s range [%v, %v)", s.Name, h, s.Category, lo, hi)
		}
	}
}

func TestZooCategoriesMatchTable1(t *testing.T) {
	want := map[string]Category{
		"resnet50":    XLarge,
		"yolov3":      Large,
		"deepspeech2": Medium,
		"resnet18":    Small,
		"neumf":       Small,
	}
	for name, cat := range want {
		s := ByName(name)
		if s == nil {
			t.Errorf("missing model %q", name)
			continue
		}
		if s.Category != cat {
			t.Errorf("%s category = %v, want %v", name, s.Category, cat)
		}
	}
}

func TestPhiMonotoneNonDecreasing(t *testing.T) {
	for _, s := range Zoo() {
		prev := 0.0
		for p := 0.0; p <= 1.0; p += 0.01 {
			phi := s.Phi(p)
			if phi < prev {
				t.Errorf("%s: phi decreased at p=%v: %v < %v", s.Name, p, phi, prev)
			}
			if phi <= 0 {
				t.Errorf("%s: phi non-positive at p=%v", s.Name, p)
			}
			prev = phi
		}
	}
}

func TestPhiJumpsAtDecays(t *testing.T) {
	s := ByName("resnet50")
	eps := 1e-9
	for _, d := range s.Decays {
		before := s.Phi(d.Progress - 0.001)
		after := s.Phi(d.Progress + eps)
		if after < before*d.Factor*0.95 {
			t.Errorf("phi at decay %v: before=%v after=%v, want ~%vx jump",
				d.Progress, before, after, d.Factor)
		}
	}
}

func TestPhiClampsProgress(t *testing.T) {
	s := ByName("resnet18")
	//pollux:floateq-ok clamping makes both sides the same evaluation; results must be identical bit-for-bit
	if s.Phi(-1) != s.Phi(0) {
		t.Error("phi(-1) != phi(0)")
	}
	//pollux:floateq-ok clamping makes both sides the same evaluation; results must be identical bit-for-bit
	if s.Phi(2) != s.Phi(1) {
		t.Error("phi(2) != phi(1)")
	}
}

func TestPhiGrowsAtLeastTenfold(t *testing.T) {
	// Sec. 2.2: the noise scale "tends to gradually increase during
	// training, by up to 10x or more". Every zoo model should at least
	// triple, and resnet50 should exceed 10x.
	for _, s := range Zoo() {
		ratio := s.Phi(1) / s.Phi(0)
		if ratio < 3 {
			t.Errorf("%s: phi(1)/phi(0) = %v, want >= 3", s.Name, ratio)
		}
	}
	if r := ByName("resnet50"); r.Phi(1)/r.Phi(0) < 10 {
		t.Errorf("resnet50 phi growth = %v, want >= 10x", r.Phi(1)/r.Phi(0))
	}
}

func TestTotalWork(t *testing.T) {
	s := ByName("resnet18")
	want := 50000.0 * 80
	//pollux:floateq-ok product of exactly representable integers; TotalWork computes the same product
	if s.TotalWork() != want {
		t.Errorf("TotalWork = %v, want %v", s.TotalWork(), want)
	}
}

func TestGoodputModelUsesProgressPhi(t *testing.T) {
	s := ByName("resnet18")
	early := s.GoodputModel(0.1)
	late := s.GoodputModel(0.9)
	if late.Phi <= early.Phi {
		t.Errorf("late phi %v <= early phi %v", late.Phi, early.Phi)
	}
	if early.M0 != s.M0 || early.MaxBatchPerGPU != s.MaxBatchPerGPU {
		t.Error("goodput model does not carry spec limits")
	}
}

func TestByNameUnknown(t *testing.T) {
	if ByName("nope") != nil {
		t.Error("ByName(unknown) != nil")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != 5 {
		t.Fatalf("Names() len = %d, want 5", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if Small.String() != "Small" || XLarge.String() != "XLarge" {
		t.Error("category String() wrong")
	}
	if Category(42).String() != "Category(42)" {
		t.Error("unknown category String() wrong")
	}
}

// Fig. 1a shape: for resnet18, batch size 2048 must scale to 16 GPUs much
// better than batch size 512.
func TestFig1aShapeLargerBatchScalesBetter(t *testing.T) {
	s := ByName("resnet18")
	small := Placement16(s, 512)
	large := Placement16(s, 2048)
	if large <= small*1.5 {
		t.Errorf("2048-batch 16-GPU throughput %v not >1.5x the 512-batch %v", large, small)
	}
}

func Placement16(s *Spec, m int) float64 {
	return s.Truth.Throughput(core.Placement{GPUs: 16, Nodes: 4}, float64(m))
}

// Fig. 1b shape: the goodput-optimal batch size at 16 GPUs grows between
// the first and second half of training.
func TestFig1bShapeOptimalBatchGrows(t *testing.T) {
	s := ByName("resnet18")
	pl := core.Placement{GPUs: 16, Nodes: 4}
	early := s.GoodputModel(0.25)
	late := s.GoodputModel(0.75)
	mEarly, _, ok1 := early.OptimalBatch(pl)
	mLate, _, ok2 := late.OptimalBatch(pl)
	if !ok1 || !ok2 {
		t.Fatal("optimal batch infeasible")
	}
	if mLate <= mEarly {
		t.Errorf("optimal batch did not grow: early=%d late=%d", mEarly, mLate)
	}
}

// Every model must be able to run at its initial configuration: m0 fits on
// one GPU and the global cap is at least m0.
func TestZooInitialConfigFeasible(t *testing.T) {
	for _, s := range Zoo() {
		if s.M0 > s.MaxBatchPerGPU {
			t.Errorf("%s: m0 %d exceeds per-GPU max %d", s.Name, s.M0, s.MaxBatchPerGPU)
		}
		if s.MaxBatchGlobal > 0 && s.MaxBatchGlobal < s.M0 {
			t.Errorf("%s: global cap %d below m0 %d", s.Name, s.MaxBatchGlobal, s.M0)
		}
		m := s.GoodputModel(0)
		if _, _, ok := m.OptimalBatch(core.SingleGPU); !ok {
			t.Errorf("%s: single GPU infeasible at start", s.Name)
		}
	}
}
