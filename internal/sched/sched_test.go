package sched

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/models"
)

func TestPlacementOf(t *testing.T) {
	cases := []struct {
		row  []int
		want core.Placement
	}{
		{[]int{0, 0}, core.Placement{GPUs: 0, Nodes: 0}},
		{[]int{4, 0}, core.Placement{GPUs: 4, Nodes: 1}},
		{[]int{2, 2, 1}, core.Placement{GPUs: 5, Nodes: 3}},
	}
	for _, c := range cases {
		if got := PlacementOf(c.row); got != c.want {
			t.Errorf("PlacementOf(%v) = %v, want %v", c.row, got, c.want)
		}
	}
}

func TestPackJobCoLocates(t *testing.T) {
	free := []int{4, 4, 4}
	row := make([]int, len(free))
	if !packJob(row, free, 4) {
		t.Fatal("pack failed")
	}
	if PlacementOf(row).Nodes != 1 {
		t.Errorf("4 GPUs should pack onto one node: %v", row)
	}
	if free[0]+free[1]+free[2] != 8 {
		t.Errorf("free not decremented: %v", free)
	}
}

func TestPackJobSpans(t *testing.T) {
	free := []int{2, 3, 1}
	row := make([]int, len(free))
	packJob(row, free, 5)
	pl := PlacementOf(row)
	if pl.GPUs != 5 {
		t.Fatalf("packed %d GPUs, want 5", pl.GPUs)
	}
	if pl.Nodes != 2 {
		t.Errorf("5 GPUs over (2,3,1) should span 2 nodes: %v", row)
	}
}

func TestPackJobInsufficient(t *testing.T) {
	free := []int{1, 1}
	row := make([]int, len(free))
	if packJob(row, free, 3) || row[0] != 0 || row[1] != 0 {
		t.Errorf("pack should fail: %v", row)
	}
	if free[0] != 1 || free[1] != 1 {
		t.Errorf("free mutated on failure: %v", free)
	}
}

func TestPackAllRespectsCapacity(t *testing.T) {
	capacity := []int{4, 4}
	m := new(packer).packAll(&ClusterView{Capacity: capacity}, []int{3, 3, 2})
	if !ga.Feasible(m, capacity, false) {
		t.Errorf("packAll produced infeasible matrix: %v", m)
	}
	total := 0
	for j := range m {
		total += PlacementOf(m[j]).GPUs
	}
	if total != 8 {
		t.Errorf("packed %d GPUs, want 8", total)
	}
}

func TestPackAllSkipsOversized(t *testing.T) {
	m := new(packer).packAll(&ClusterView{Capacity: []int{2}}, []int{5, 1})
	if PlacementOf(m[0]).GPUs != 0 {
		t.Errorf("oversized job allocated: %v", m[0])
	}
	if PlacementOf(m[1]).GPUs != 1 {
		t.Errorf("small job not allocated: %v", m[1])
	}
}

// viewWith builds a cluster view with n identical tuned resnet18 jobs,
// reporting their ground-truth goodput models (well-explored agents).
func viewWith(n int, nodes, perNode int) *ClusterView {
	spec := models.ByName("resnet18")
	capacity := make([]int, nodes)
	for i := range capacity {
		capacity[i] = perNode
	}
	v := &ClusterView{Capacity: capacity, Current: ga.NewMatrix(n, nodes)}
	for i := 0; i < n; i++ {
		v.Jobs = append(v.Jobs, JobView{
			ID:             i,
			Model:          spec.GoodputModel(0.5),
			GPUCap:         nodes * perNode,
			UserGPUs:       2,
			UserBatch:      512,
			MinGPUs:        1,
			RemainingIters: 1e4,
		})
	}
	return v
}

func TestPolluxAllocatesAllGPUsWhenScarce(t *testing.T) {
	v := viewWith(8, 4, 4) // 8 jobs, 16 GPUs
	p := NewPollux(PolluxOptions{Population: 30, Generations: 30}, 1)
	m := p.Schedule(v)
	if !ga.Feasible(m, v.Capacity, true) {
		t.Fatalf("infeasible allocation: %v", m)
	}
	total := 0
	allocated := 0
	for j := range m {
		k := PlacementOf(m[j]).GPUs
		total += k
		if k > 0 {
			allocated++
		}
	}
	if total < 12 {
		t.Errorf("only %d of 16 GPUs allocated", total)
	}
	if allocated < 6 {
		t.Errorf("only %d of 8 jobs running", allocated)
	}
}

func TestPolluxRespectsGPUCap(t *testing.T) {
	v := viewWith(1, 4, 4)
	v.Jobs[0].GPUCap = 2 // fresh job: exploration cap
	p := NewPollux(PolluxOptions{Population: 30, Generations: 30}, 2)
	m := p.Schedule(v)
	if k := PlacementOf(m[0]).GPUs; k > 2 {
		t.Errorf("allocation %d exceeds exploration cap 2", k)
	}
	if k := PlacementOf(m[0]).GPUs; k == 0 {
		t.Error("job left unscheduled despite free GPUs")
	}
}

func TestPolluxWeightDecay(t *testing.T) {
	p := NewPollux(PolluxOptions{Lambda: 0.5}, 3)
	if w := p.weight(3600); w != 1 {
		t.Errorf("weight below threshold = %v, want 1", w)
	}
	w := p.weight(16 * 3600) // 4x the 4 GPU-hour threshold
	if w >= 1 || w <= 0 {
		t.Errorf("decayed weight = %v, want in (0, 1)", w)
	}
	// λ=0 disables decay.
	p0 := NewPollux(PolluxOptions{Lambda: 0}, 3)
	if w := p0.weight(1e9); w != 1 {
		t.Errorf("λ=0 weight = %v, want 1", w)
	}
}

func TestPolluxEmptyCluster(t *testing.T) {
	p := NewPollux(PolluxOptions{Population: 10, Generations: 5}, 4)
	v := &ClusterView{Capacity: []int{4, 4}}
	m := p.Schedule(v)
	if len(m) != 0 {
		t.Errorf("empty view allocation = %v", m)
	}
}

// TestPolluxJobsWithoutNodes is the regression test for a view that still
// has jobs after the cluster lost every node: ga.New panicked in
// rng.Intn(0). Every configuration must pause every job, and schedule
// normally once nodes are back.
func TestPolluxJobsWithoutNodes(t *testing.T) {
	for _, opts := range []PolluxOptions{
		{Population: 10, Generations: 5},
		{Population: 10, Generations: 5, Incremental: true},
		{Population: 10, Generations: 5, Incremental: true, RackSize: 2},
	} {
		p := NewPollux(opts, 4)
		v := viewWith(3, 0, 4)
		for round := 0; round < 2; round++ {
			m := p.Schedule(v)
			if len(m) != 3 || len(m[0]) != 0 {
				t.Fatalf("%+v round %d: allocation = %v, want three zero-width rows", opts, round, m)
			}
			v.Current = m
		}
		back := viewWith(3, 4, 4)
		m := p.Schedule(back)
		if !ga.Feasible(m, back.Capacity, true) || PlacementOf(m[0]).GPUs+PlacementOf(m[1]).GPUs+PlacementOf(m[2]).GPUs == 0 {
			t.Errorf("%+v: allocation once nodes are back = %v", opts, m)
		}
	}
}

func TestPolluxPopulationCarryOver(t *testing.T) {
	v := viewWith(4, 4, 4)
	p := NewPollux(PolluxOptions{Population: 20, Generations: 10}, 5)
	first := p.Schedule(v)
	if p.prevPop == nil {
		t.Fatal("population not saved")
	}
	// Apply and reschedule: stable state should not thrash.
	v.Current = first
	second := p.Schedule(v)
	if !ga.Feasible(second, v.Capacity, true) {
		t.Fatal("infeasible second allocation")
	}
	// With the restart penalty and an already-good allocation, most jobs
	// keep their placement.
	same := 0
	for j := range second {
		if slices.Equal(second[j], first[j]) {
			same++
		}
	}
	if same < 2 {
		t.Errorf("only %d of 4 jobs kept placement; restart penalty ineffective", same)
	}
}

func TestPolluxInterferenceAvoidanceToggle(t *testing.T) {
	v := viewWith(6, 4, 2) // small nodes force spanning
	p := NewPollux(PolluxOptions{Population: 30, Generations: 20}, 6)
	m := p.Schedule(v)
	if !ga.Feasible(m, v.Capacity, true) {
		t.Errorf("avoidance enabled but constraint violated: %v", m)
	}
	pOff := NewPollux(PolluxOptions{Population: 30, Generations: 20, DisableInterferenceAvoidance: true}, 6)
	mOff := pOff.Schedule(v)
	if !ga.Feasible(mOff, v.Capacity, false) {
		t.Errorf("capacity violated with avoidance off: %v", mOff)
	}
}

func TestSpeedupTableMemoizes(t *testing.T) {
	spec := models.ByName("resnet18")
	tab := newSpeedupTable(spec.GoodputModel(0.5), 16, 16, 4)
	a := tab.Speedup(8, 2)
	b := tab.Speedup(8, 2)
	//pollux:floateq-ok memoization check: the second lookup must return the identical stored value
	if a != b {
		t.Errorf("memoized speedup differs: %v vs %v", a, b)
	}
	if a <= 1 {
		t.Errorf("8-GPU speedup = %v, want > 1", a)
	}
	if tab.Speedup(17, 2) != 0 {
		t.Error("speedup beyond cap should be 0")
	}
	if tab.Speedup(0, 0) != 0 {
		t.Error("zero allocation speedup should be 0")
	}
}
