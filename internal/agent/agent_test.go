package agent

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

func newTestAgent() *Agent {
	s := models.ByName("resnet18")
	return New(s.M0, s.Eta0, s.MaxBatchPerGPU, s.MaxBatchGlobal)
}

// feed profiles the agent with ground-truth iteration times (plus optional
// noise) across placements and batch sizes.
func feed(a *Agent, rng *rand.Rand, truth core.Params, noise float64, pls []core.Placement, batches []int) {
	for _, pl := range pls {
		for _, m := range batches {
			ti := truth.TIter(pl, float64(m))
			if noise > 0 {
				ti *= 1 + noise*(rng.Float64()*2-1)
			}
			a.RecordSample(pl, m, ti)
		}
	}
}

func TestNewPanicsOnBadM0(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(m0=0) did not panic")
		}
	}()
	New(0, 0.1, 256, 0)
}

func TestRecordSampleIgnoresInvalid(t *testing.T) {
	a := newTestAgent()
	a.RecordSample(core.Placement{GPUs: 0, Nodes: 0}, 128, 0.1)
	a.RecordSample(core.SingleGPU, 0, 0.1)
	a.RecordSample(core.SingleGPU, 128, -1)
	if len(a.profile) != 0 {
		t.Errorf("invalid samples recorded: %d", len(a.profile))
	}
}

func TestExplorationGrowsWithSamples(t *testing.T) {
	a := newTestAgent()
	if cap := a.GPUCap(); cap != 2 {
		t.Errorf("initial GPU cap = %d, want 2", cap)
	}
	a.RecordSample(core.Placement{GPUs: 2, Nodes: 1}, 128, 0.1)
	if cap := a.GPUCap(); cap != 4 {
		t.Errorf("GPU cap after 2 GPUs = %d, want 4", cap)
	}
	a.RecordSample(core.Placement{GPUs: 8, Nodes: 2}, 512, 0.1)
	if cap := a.GPUCap(); cap != 16 {
		t.Errorf("GPU cap after 8 GPUs = %d, want 16", cap)
	}
	e := a.explored
	if e.MaxGPUs != 8 || e.MaxNodes != 2 {
		t.Errorf("explored = %+v, want {8 2}", e)
	}
}

func TestReportBeforeAnyDataIsOptimistic(t *testing.T) {
	a := newTestAgent()
	a.SetPhi(0)
	m := a.Report()
	// Prior-frozen sync params: perfect scaling assumed.
	if m.Params.AlphaSyncLocal != 0 || m.Params.AlphaSyncNode != 0 {
		t.Errorf("sync params not frozen: %+v", m.Params)
	}
	if m.M0 != 128 {
		t.Errorf("m0 = %d, want 128", m.M0)
	}
}

func TestRefitRecoversTruthFromProfiles(t *testing.T) {
	s := models.ByName("resnet18")
	a := newTestAgent()
	rng := rand.New(rand.NewSource(4))
	pls := []core.Placement{
		{GPUs: 1, Nodes: 1}, {GPUs: 2, Nodes: 1}, {GPUs: 4, Nodes: 1},
		{GPUs: 8, Nodes: 2}, {GPUs: 12, Nodes: 3}, {GPUs: 16, Nodes: 4},
	}
	feed(a, rng, s.Truth, 0.03, pls, []int{128, 256, 512, 1024, 2048})
	a.Refit()
	m := a.Report()
	for _, pl := range []core.Placement{{GPUs: 4, Nodes: 1}, {GPUs: 16, Nodes: 4}} {
		want := s.Truth.TIter(pl, 1024)
		got := m.Params.TIter(pl, 1024)
		if math.Abs(got-want)/want > 0.2 {
			t.Errorf("TIter(%v): fitted %v vs truth %v (>20%%)", pl, got, want)
		}
	}
}

func TestRepeatedSamplesAveraged(t *testing.T) {
	a := newTestAgent()
	for i := 0; i < 10; i++ {
		a.RecordSample(core.SingleGPU, 128, 0.08+0.01*float64(i%2)) // alternate 0.08/0.09
	}
	if len(a.profile) != 1 {
		t.Errorf("distinct configs = %d, want 1", len(a.profile))
	}
	a.Refit()
	m := a.Report()
	got := m.Params.TIter(core.SingleGPU, 128)
	if math.Abs(got-0.085) > 0.01 {
		t.Errorf("fitted TIter = %v, want ~0.085 (average)", got)
	}
}

func TestTuneBatchGrowsWithPhi(t *testing.T) {
	s := models.ByName("resnet18")
	a := newTestAgent()
	rng := rand.New(rand.NewSource(9))
	pls := []core.Placement{{GPUs: 1, Nodes: 1}, {GPUs: 2, Nodes: 1}, {GPUs: 4, Nodes: 1}, {GPUs: 8, Nodes: 2}, {GPUs: 16, Nodes: 4}}
	feed(a, rng, s.Truth, 0, pls, []int{128, 256, 512, 1024, 2048, 4096})
	a.Refit()

	pl := core.Placement{GPUs: 16, Nodes: 4}
	a.SetPhi(s.Phi(0.1))
	early, _ := a.TuneBatch(pl)
	a.SetPhi(s.Phi(0.9))
	late, lrLate := a.TuneBatch(pl)
	if late <= early {
		t.Errorf("tuned batch did not grow with phi: early=%d late=%d", early, late)
	}
	// AdaScale LR for a larger batch must be >= eta0 and <= linear rule.
	if lrLate < s.Eta0 || lrLate > s.Eta0*float64(late)/float64(s.M0) {
		t.Errorf("lr = %v outside [eta0, linear] bounds", lrLate)
	}
}

func TestTuneBatchInfeasibleFallsBackToM0(t *testing.T) {
	// m0 = 512 but only one GPU with 256 capacity: infeasible, stay at m0.
	a := New(512, 0.1, 256, 0)
	batch, _ := a.TuneBatch(core.SingleGPU)
	if batch != 512 {
		t.Errorf("batch = %d, want m0 fallback 512", batch)
	}
}

func TestSetPhiOverrides(t *testing.T) {
	a := newTestAgent()
	a.SetPhi(1234)
	if m := a.Report(); m.Phi != 1234 {
		t.Errorf("phi = %v, want 1234", m.Phi)
	}
}

func TestConcurrentUse(t *testing.T) {
	a := newTestAgent()
	s := models.ByName("resnet18")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				pl := core.Placement{GPUs: 1 + rng.Intn(8), Nodes: 1}
				if pl.GPUs >= 4 {
					pl.Nodes = 2
				}
				a.RecordSample(pl, 128+rng.Intn(512), 0.05+rng.Float64()*0.1)
				a.SetPhi(s.Phi(0.5))
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			a.Refit()
			a.Report()
			a.TuneBatch(core.Placement{GPUs: 4, Nodes: 1})
		}
	}()
	wg.Wait()
}

// TestRefitAllWorkersDeterminism: fanning a report round's refits over
// any worker count must leave every agent with the bit-identical fitted
// model — the contract that lets sim.agentTick parallelize refits without
// perturbing traces.
func TestRefitAllWorkersDeterminism(t *testing.T) {
	truth := models.ByName("resnet18").Truth
	pls := []core.Placement{
		{GPUs: 1, Nodes: 1}, {GPUs: 2, Nodes: 1}, {GPUs: 4, Nodes: 2},
	}
	build := func() []*Agent {
		rng := rand.New(rand.NewSource(7))
		ags := make([]*Agent, 16)
		for i := range ags {
			a := newTestAgent()
			feed(a, rng, truth, 0.1, pls, []int{128, 256, 512})
			a.SetPhi(float64(1 + i))
			ags[i] = a
		}
		return ags
	}
	serial := build()
	RefitAll(serial, 1)
	for _, workers := range []int{2, 8} {
		parallel := build()
		RefitAll(parallel, workers)
		for i := range serial {
			if serial[i].Report() != parallel[i].Report() {
				t.Fatalf("agent %d: workers=%d report differs from serial:\n%+v\n%+v",
					i, workers, serial[i].Report(), parallel[i].Report())
			}
		}
	}
}

// TestWarmRefitConvergence: with the configuration set frozen, repeated
// noisy observations must keep pulling the fit toward the full refit's
// ground truth through the warm-start path — the regression target is the
// former permanent skip, which froze θsys at the first full fit until a
// new configuration appeared.
func TestWarmRefitConvergence(t *testing.T) {
	truth := models.ByName("resnet18").Truth
	pls := []core.Placement{
		{GPUs: 1, Nodes: 1}, {GPUs: 2, Nodes: 1}, {GPUs: 4, Nodes: 2},
	}
	batches := []int{128, 256}
	warm := newTestAgent()
	force := newTestAgent()
	rng := rand.New(rand.NewSource(3))
	profileRound := func() {
		for _, pl := range pls {
			for _, m := range batches {
				ti := truth.TIter(pl, float64(m)) * (1 + 0.2*(rng.Float64()*2-1))
				warm.RecordSample(pl, m, ti)
				force.RecordSample(pl, m, ti)
			}
		}
	}
	profileRound()
	warm.Refit()
	force.Refit()
	first := warm.Report().Params

	warmRefits := 0
	for round := 0; round < 60; round++ {
		profileRound()
		if warm.NeedsRefit() {
			warmRefits++
		}
		warm.Refit()
		force.mu.Lock()
		force.refitLocked()
		force.mu.Unlock()
	}
	if warmRefits == 0 {
		t.Fatal("warm-refit path never triggered on re-averaged known configurations")
	}
	if got := warm.Report().Params; got == first {
		t.Errorf("fit frozen at the first full fit: warm-start path did not absorb %d rounds of re-averaging", 60)
	}

	// Judge both fits against noiseless ground-truth samples: the cheap
	// warm-start cadence must land within a modest factor of the full
	// multi-start refit it replaces.
	var clean []core.Sample
	for _, pl := range pls {
		for _, m := range batches {
			clean = append(clean, core.Sample{
				Placement: pl, Batch: m, TIter: truth.TIter(pl, float64(m)),
			})
		}
	}
	warmErr := core.RMSLE(warm.Report().Params, clean)
	forceErr := core.RMSLE(force.Report().Params, clean)
	t.Logf("warm refits executed: %d; RMSLE vs truth: warm %.4f, force %.4f", warmRefits, warmErr, forceErr)
	if warmErr > forceErr*1.25+0.01 {
		t.Errorf("warm-refit fit RMSLE %.4f too far above the full refit's ground truth %.4f", warmErr, forceErr)
	}
}
