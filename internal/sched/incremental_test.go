package sched

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/models"
)

// incOpts are the incremental-mode GA settings shared by these tests:
// big enough that the GA reliably finds good allocations on the small
// clusters used here, small enough to keep the suite fast. FullEvery -1
// keeps the cadence out of tests that exercise the incremental path
// itself.
func incOpts() PolluxOptions {
	return PolluxOptions{Population: 30, Generations: 30, Incremental: true, FullEvery: -1}
}

func TestIncrementalSkipsUnchangedRound(t *testing.T) {
	v := viewWith(6, 4, 4)
	p := NewPollux(incOpts(), 8)
	first := p.Schedule(v)
	if !p.LastRoundStats().Full {
		t.Fatal("first round must be a full re-optimization")
	}
	// Apply the allocation and re-schedule with nothing changed: the round
	// must carry the matrix forward without running any GA.
	v.Current = first
	second := p.Schedule(v)
	st := p.LastRoundStats()
	if !st.Skipped || st.Full {
		t.Fatalf("unchanged round not skipped: %+v", st)
	}
	if st.Sub != 0 || st.FitnessCalls != 0 {
		t.Errorf("skipped round did work: %+v", st)
	}
	if !second.Equal(first) {
		t.Errorf("skipped round changed the allocation:\n%v\nvs\n%v", first, second)
	}
}

func TestIncrementalDirtyOnModelChange(t *testing.T) {
	// Four single-node jobs on eight nodes: after the full round each job
	// sits alone, so refitting one model dirties only that job (plus at
	// most a co-located neighbor), never the whole cluster.
	v := viewWith(4, 8, 4)
	for i := range v.Jobs {
		v.Jobs[i].GPUCap = 4
	}
	p := NewPollux(incOpts(), 7)
	first := p.Schedule(v)
	v.Current = first

	v.Jobs[2].Model.Phi *= 2 // agent refit: the noise scale moved
	out := p.Schedule(v)
	st := p.LastRoundStats()
	if st.Full || st.Skipped {
		t.Fatalf("model change should give a partial round: %+v", st)
	}
	if st.Sub < 1 || st.Sub >= st.Jobs {
		t.Errorf("dirty set = %d of %d jobs, want a proper subset containing job 2", st.Sub, st.Jobs)
	}
	if !ga.Feasible(out, v.Capacity, true) {
		t.Fatalf("infeasible incremental allocation: %v", out)
	}
	// Clean rows carry forward verbatim: at most Sub rows may differ from
	// the applied allocation.
	changed := 0
	for j := range out {
		if !slices.Equal(out[j], first[j]) {
			changed++
		}
	}
	if changed > st.Sub {
		t.Errorf("%d rows changed but only %d jobs were re-placed", changed, st.Sub)
	}
}

func TestIncrementalFullEveryCadence(t *testing.T) {
	v := viewWith(4, 4, 4)
	opts := incOpts()
	opts.FullEvery = 2
	p := NewPollux(opts, 9)
	var full []bool
	for r := 0; r < 6; r++ {
		v.Current = p.Schedule(v)
		full = append(full, p.LastRoundStats().Full)
	}
	// Round 0 is full (no committed state); every third round after two
	// incremental ones is forced full by the cadence.
	want := []bool{true, false, false, true, false, false}
	for r := range want {
		if full[r] != want[r] {
			t.Fatalf("round %d full=%v, want %v (cadence %v)", r, full[r], want[r], full)
		}
	}
}

func TestIncrementalChurnArrivalsAndDepartures(t *testing.T) {
	v := viewWith(6, 4, 4)
	p := NewPollux(incOpts(), 11)
	out := p.Schedule(v)

	// Job 2 finishes: drop its view row and allocation row.
	jobs := append(append([]JobView(nil), v.Jobs[:2]...), v.Jobs[3:]...)
	cur := append(append(ga.Matrix(nil), out[:2]...), out[3:]...)
	v2 := &ClusterView{Capacity: v.Capacity, Jobs: jobs, Current: cur}
	out2 := p.Schedule(v2)
	if len(out2) != 5 {
		t.Fatalf("allocation has %d rows, want 5", len(out2))
	}
	if !ga.Feasible(out2, v.Capacity, true) {
		t.Fatalf("infeasible allocation after departure: %v", out2)
	}

	// A new job arrives with free GPUs available: it must be part of the
	// round's dirty set and the result must stay feasible.
	arrival := v.Jobs[0]
	arrival.ID = 100
	jobs = append(append([]JobView(nil), jobs...), arrival)
	cur = append(append(ga.Matrix(nil), out2...), make([]int, len(v.Capacity)))
	v3 := &ClusterView{Capacity: v.Capacity, Jobs: jobs, Current: cur}
	out3 := p.Schedule(v3)
	st := p.LastRoundStats()
	if !ga.Feasible(out3, v.Capacity, true) {
		t.Fatalf("infeasible allocation after arrival: %v", out3)
	}
	if !st.Full && st.Sub < 1 {
		t.Errorf("arrival round re-placed no jobs: %+v", st)
	}
}

// TestIncrementalDeterministicAcrossWorkers pins the repo-wide
// determinism contract on the new paths: the same seed produces
// bit-identical allocation trajectories regardless of the fitness worker
// count, through full, incremental, and hierarchical rounds with churn.
func TestIncrementalDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []ga.Matrix {
		opts := incOpts()
		opts.Workers = workers
		opts.RackSize = 2 // 4 nodes = 2 racks: hierarchy on
		p := NewPollux(opts, 13)
		v := viewWith(5, 4, 4)
		var outs []ga.Matrix
		for r := 0; r < 4; r++ {
			out := p.Schedule(v)
			outs = append(outs, out)
			v.Current = out
			if r == 1 {
				v.Jobs[1].Model.Phi *= 1.5
			}
			if r == 2 {
				v.Jobs = v.Jobs[:4]
				v.Current = v.Current[:4]
			}
		}
		return outs
	}
	a, b := run(1), run(3)
	for r := range a {
		if !a[r].Equal(b[r]) {
			t.Fatalf("round %d diverges across worker counts:\n%v\nvs\n%v", r, a[r], b[r])
		}
	}
}

// objective scores an allocation with fresh speedup tables (no shared
// state with either scheduler under test): the mean per-job SPEEDUP, the
// Eqn. 14 objective with unit weights and no restart penalty.
func objective(v *ClusterView, m ga.Matrix) float64 {
	maxK := v.TotalGPUs()
	total := 0.0
	for i, j := range v.Jobs {
		tab := newSpeedupTable(j.Model, j.GPUCap, maxK, len(v.Capacity))
		pl := PlacementOf(m[i])
		total += tab.Speedup(pl.GPUs, pl.Nodes)
	}
	return total / float64(len(v.Jobs))
}

// TestIncrementalObjectiveParity is the sched-level half of the parity
// acceptance criterion: over a multi-round trajectory on the standard
// 16-node cluster shape with refits, a departure, and an arrival, the
// incremental+hierarchical scheduler's achieved objective stays within
// exhibit tolerance of independent full re-optimization.
func TestIncrementalObjectiveParity(t *testing.T) {
	capacity := make([]int, 16)
	for i := range capacity {
		capacity[i] = 4
	}
	baseJobs := func() []JobView { return viewWith(24, 16, 4).Jobs }

	type traj struct {
		p    *Pollux
		cur  map[int][]int
		objs []float64
	}
	incOptsH := incOpts()
	incOptsH.RackSize = 4
	trajs := []*traj{
		{p: NewPollux(PolluxOptions{Population: 30, Generations: 30}, 17), cur: map[int][]int{}},
		{p: NewPollux(incOptsH, 17), cur: map[int][]int{}},
	}

	jobs := baseJobs()
	sawPartial := false
	for r := 0; r < 6; r++ {
		for _, tr := range trajs {
			v := &ClusterView{Capacity: capacity, Jobs: jobs, Current: ga.NewMatrix(len(jobs), 16)}
			for i, j := range jobs {
				if row, ok := tr.cur[j.ID]; ok {
					copy(v.Current[i], row)
				}
			}
			out := tr.p.Schedule(v)
			if !ga.Feasible(out, capacity, true) {
				t.Fatalf("%s round %d infeasible: %v", tr.p.Name(), r, out)
			}
			tr.cur = map[int][]int{}
			for i, j := range jobs {
				tr.cur[j.ID] = append([]int(nil), out[i]...)
			}
			tr.objs = append(tr.objs, objective(v, out))
		}
		st := trajs[1].p.LastRoundStats()
		if !st.Full && !st.Skipped {
			sawPartial = true
		}
		// Deterministic churn between rounds, shared by both trajectories.
		jobs[(3*r)%len(jobs)].Model.Phi *= 1.25
		if r == 2 {
			jobs = append(append([]JobView(nil), jobs[:5]...), jobs[6:]...)
		}
		if r == 3 {
			nj := viewWith(1, 16, 4).Jobs[0]
			nj.ID = 200
			jobs = append(jobs, nj)
		}
	}
	if !sawPartial {
		t.Fatal("incremental trajectory never took a partial round; parity check is vacuous")
	}
	sumFull, sumInc := 0.0, 0.0
	for r := range trajs[0].objs {
		full, inc := trajs[0].objs[r], trajs[1].objs[r]
		sumFull += full
		sumInc += inc
		if inc < 0.8*full {
			t.Errorf("round %d: incremental objective %.4f below 80%% of full %.4f", r, inc, full)
		}
	}
	if sumInc < 0.9*sumFull {
		t.Errorf("trajectory objective: incremental %.4f < 90%% of full %.4f", sumInc, sumFull)
	}
}

func TestHierarchicalScheduleFeasible(t *testing.T) {
	v := viewWith(12, 16, 4)
	opts := incOpts()
	opts.RackSize = 4
	p := NewPollux(opts, 19)
	m := p.Schedule(v)
	if !ga.Feasible(m, v.Capacity, true) {
		t.Fatalf("infeasible hierarchical allocation: %v", m)
	}
	st := p.LastRoundStats()
	if st.Racks == 0 {
		t.Error("hierarchical round refined no racks")
	}
	total, allocated := 0, 0
	for j := range m {
		k := m.JobGPUs(j)
		total += k
		if k > 0 {
			allocated++
		}
	}
	if total < 48 {
		t.Errorf("only %d of 64 GPUs allocated", total)
	}
	if allocated < 8 {
		t.Errorf("only %d of 12 jobs running", allocated)
	}
}

// TestHierarchicalCutsFitnessWork checks the mechanism behind the mega
// exhibit's headline: rack decomposition scores far fewer matrix cells
// per round than the flat GA at the same settings. (The >= 5x acceptance
// bar is measured at 512 nodes by the mega exhibit; at 32 nodes the gap
// is smaller but must already be visible.)
func TestHierarchicalCutsFitnessWork(t *testing.T) {
	v := viewWith(24, 32, 4)
	flat := NewPollux(PolluxOptions{Population: 30, Generations: 30}, 23)
	flat.Schedule(v)
	flatCells := flat.LastRoundStats().FitnessCells

	opts := incOpts()
	opts.RackSize = 8
	hier := NewPollux(opts, 23)
	hier.Schedule(viewWith(24, 32, 4))
	hierCells := hier.LastRoundStats().FitnessCells

	if flatCells == 0 || hierCells == 0 {
		t.Fatalf("fitness work not counted: flat %d, hier %d", flatCells, hierCells)
	}
	if hierCells*2 > flatCells {
		t.Errorf("hierarchical round scored %d cells, flat %d; want at least 2x fewer", hierCells, flatCells)
	}
}

// TestRecordsDropDepartedLargeNSparseIDs: after a round over a seventh of
// a large population with sparse IDs, records and speedup tables are left
// for the jobs of that view and for no other.
func TestRecordsDropDepartedLargeNSparseIDs(t *testing.T) {
	p := NewPollux(PolluxOptions{Population: 2, Generations: 1}, 1)
	model := models.ByName("resnet18").GoodputModel(0.5)
	const n = 5000
	v := &ClusterView{Capacity: []int{4, 4}}
	for i := 0; i < n; i++ {
		v.Jobs = append(v.Jobs, JobView{ID: i*97 + 13, Model: model, GPUCap: 4})
	}
	p.Schedule(v)
	if len(p.recs) != n || len(p.byID) != n {
		t.Fatalf("%d records, %d by ID, want %d", len(p.recs), len(p.byID), n)
	}
	// Every 7th job is still in the view; the rest finished.
	live := &ClusterView{Capacity: v.Capacity}
	for i := 0; i < n; i += 7 {
		live.Jobs = append(live.Jobs, v.Jobs[i])
	}
	p.Schedule(live)
	if len(p.recs) != len(live.Jobs) || len(p.byID) != len(live.Jobs) {
		t.Fatalf("%d records, %d by ID survive, want %d", len(p.recs), len(p.byID), len(live.Jobs))
	}
	for i, j := range live.Jobs {
		if rec := p.byID[j.ID]; rec == nil || rec != p.recs[i] || rec.pos != i || rec.table == nil {
			t.Fatalf("live job %d has record %+v", j.ID, rec)
		}
	}
}

func TestRemapSeedsSparseIDsBitStable(t *testing.T) {
	p := NewPollux(PolluxOptions{}, 1)
	nodes := 6
	// Carried population rows are tagged with ID-derived patterns so any
	// misalignment is visible.
	prevIDs := []int{907, 13, 500000, 42}
	rowFor := func(id int) []int {
		row := make([]int, nodes)
		for n := range row {
			row[n] = (id + n) % 3
		}
		return row
	}
	carried := &PolluxSnapshot{PrevJobs: prevIDs}
	for pi := 0; pi < 2; pi++ {
		m := make(ga.Matrix, len(prevIDs))
		for i, id := range prevIDs {
			m[i] = rowFor(id + pi)
		}
		carried.PrevPop = append(carried.PrevPop, m)
	}
	if err := p.Restore(carried); err != nil {
		t.Fatal(err)
	}

	// New view: shuffled order, one departure (907), one arrival (999999).
	jobs := []JobView{{ID: 500000}, {ID: 42}, {ID: 999999}, {ID: 13}}
	r := p.newRound(&ClusterView{Capacity: make([]int, nodes), Jobs: jobs})
	zero := make([]int, nodes)
	// Every job (a full round), then a sub-problem (IDs 500000 and 13):
	// both must project the same ID-keyed rows.
	for _, sub := range [][]int{{0, 1, 2, 3}, {0, 3}} {
		r.sub = sub
		seeds := r.subSeeds()
		if len(seeds) != 2 {
			t.Fatalf("sub %v: %d seeds, want 2", sub, len(seeds))
		}
		for pi, seed := range seeds {
			if len(seed) != len(sub) {
				t.Fatalf("sub %v: seed %d has %d rows", sub, pi, len(seed))
			}
			for si, i := range sub {
				want := zero
				if jobs[i].ID != 999999 {
					want = rowFor(jobs[i].ID + pi)
				}
				if !slices.Equal(seed[si], want) {
					t.Errorf("sub %v: seed %d job %d row = %v, want %v", sub, pi, jobs[i].ID, seed[si], want)
				}
			}
		}
	}
}

func TestSpeedupTableTriangular(t *testing.T) {
	model := models.ByName("resnet18").GoodputModel(0.5)
	tab := newSpeedupTable(model, 10, 16, 4)
	if tab.kCap != 10 {
		t.Fatalf("kCap = %d, want 10 (min of maxK and gpuCap)", tab.kCap)
	}
	for _, c := range []struct{ k, n int }{
		{11, 1}, // beyond the exploration cap
		{2, 3},  // more nodes than GPUs
		{3, 5},  // more nodes than the cluster has
	} {
		if s := tab.Speedup(c.k, c.n); s != 0 {
			t.Errorf("Speedup(%d, %d) = %v, want 0", c.k, c.n, s)
		}
	}
	// Stored values match the direct model computation bit for bit.
	_, denom, ok := model.OptimalBatch(core.SingleGPU)
	if !ok {
		t.Fatal("single-GPU batch infeasible")
	}
	_, num, ok := model.OptimalBatch(core.Placement{GPUs: 4, Nodes: 2})
	if !ok {
		t.Fatal("(4, 2) batch infeasible")
	}
	//pollux:floateq-ok the triangular layout must store the exact same value the dense one did
	if got, want := tab.Speedup(4, 2), num/denom; got != want {
		t.Errorf("Speedup(4, 2) = %v, want %v", got, want)
	}
}

func TestSpeedupRack(t *testing.T) {
	model := models.ByName("resnet18").GoodputModel(0.5)
	tab := newSpeedupTable(model, 16, 16, 8)
	tab.ensureRack()
	tab.ensureRack() // idempotent

	//pollux:floateq-ok a single-rack span must reduce to the identical two-tier cell
	if got, want := tab.SpeedupRack(8, 2, 1), tab.Speedup(8, 2); got != want {
		t.Errorf("SpeedupRack(8, 2, 1) = %v, want flat %v", got, want)
	}
	flat := tab.Speedup(8, 4)
	cross := tab.SpeedupRack(8, 4, 2)
	if cross <= 0 {
		t.Fatalf("cross-rack speedup = %v, want > 0", cross)
	}
	if cross >= flat {
		t.Errorf("cross-rack speedup %v not below intra-rack %v despite 2x sync penalty", cross, flat)
	}
	if s := tab.SpeedupRack(8, 4, 5); s != 0 {
		t.Errorf("more racks than nodes should score 0, got %v", s)
	}
}

// TestRackSizeAloneStaysFull pins the documented meaning of RackSize
// without Incremental (pollux-sim -racksize N): every round re-places every
// job, hierarchically, and the dirty set is never consulted.
func TestRackSizeAloneStaysFull(t *testing.T) {
	v := viewWith(10, 8, 4)
	p := NewPollux(PolluxOptions{Population: 20, Generations: 10, RackSize: 4}, 31)
	for r := 0; r < 4; r++ {
		v.Current = p.Schedule(v)
		st := p.LastRoundStats()
		if !st.Full || st.Skipped || st.Sub != len(v.Jobs) {
			t.Fatalf("round %d is not a full re-optimization: %+v", r, st)
		}
		if st.Racks == 0 {
			t.Fatalf("round %d did not decompose by rack: %+v", r, st)
		}
		if !ga.Feasible(v.Current, v.Capacity, true) {
			t.Fatalf("round %d infeasible: %v", r, v.Current)
		}
		if r == 1 {
			v.Jobs[3].Model.Phi *= 1.5 // one refit: a partial round if the dirty set were consulted
		}
	}
	if p.inc != nil {
		t.Error("dirty-set state kept although Incremental is off")
	}
}
