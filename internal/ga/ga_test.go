package ga

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestNewMatrixZero(t *testing.T) {
	m := NewMatrix(3, 4)
	if len(m) != 3 || len(m[0]) != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", len(m), len(m[0]))
	}
	for j := range m {
		for n := range m[j] {
			if m[j][n] != 0 {
				t.Errorf("m[%d][%d] = %d, want 0", j, n, m[j][n])
			}
		}
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := NewMatrix(2, 2)
	m[0][0] = 5
	c := m.Clone()
	c[0][0] = 9
	if m[0][0] != 5 {
		t.Error("clone shares backing storage with original")
	}
	if !m.Equal(m.Clone()) {
		t.Error("clone not equal to original")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := Matrix{{2, 0, 1}, {0, 3, 0}}
	if g := m.JobGPUs(0); g != 3 {
		t.Errorf("JobGPUs(0) = %d, want 3", g)
	}
	if n := m.JobNodes(0); n != 2 {
		t.Errorf("JobNodes(0) = %d, want 2", n)
	}
	if n := m.JobNodes(1); n != 1 {
		t.Errorf("JobNodes(1) = %d, want 1", n)
	}
	usage, span := make([]int, 3), make([]int, 2)
	m.tally(usage, span)
	if want := []int{2, 3, 1}; !slices.Equal(usage, want) {
		t.Errorf("tally usage = %v, want %v", usage, want)
	}
	if want := []int{2, 1}; !slices.Equal(span, want) {
		t.Errorf("tally span = %v, want %v", span, want)
	}
}

// usageOf returns m's per-node GPU totals over the given number of nodes.
func usageOf(m Matrix, nodes int) []int {
	usage := make([]int, nodes)
	m.tally(usage, make([]int, len(m)))
	return usage
}

func TestMatrixEqual(t *testing.T) {
	a := Matrix{{1, 2}, {3, 4}}
	b := Matrix{{1, 2}, {3, 4}}
	c := Matrix{{1, 2}, {3, 5}}
	if !a.Equal(b) {
		t.Error("equal matrices reported unequal")
	}
	if a.Equal(c) {
		t.Error("unequal matrices reported equal")
	}
	if a.Equal(Matrix{{1, 2}}) {
		t.Error("different shapes reported equal")
	}
}

func TestRepairCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Matrix{{4, 0}, {4, 0}, {0, 2}}
	capacity := []int{4, 4}
	RepairCapacity(m, capacity, rng)
	// Node 0 must have been reduced by exactly the excess, node 1 left alone.
	if got, want := usageOf(m, 2), []int{4, 2}; !slices.Equal(got, want) {
		t.Errorf("usage after repair = %v, want %v", got, want)
	}
}

func TestRepairInterference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Jobs 0 and 1 are both distributed and share node 1.
	m := Matrix{
		{2, 2, 0},
		{0, 2, 2},
		{0, 1, 0}, // single-node job, allowed to share
	}
	RepairInterference(m, rng)
	if !Feasible(m, []int{8, 8, 8}, true) {
		t.Errorf("interference constraint not repaired: %v", m)
	}
	// Single-node job must be untouched.
	if m[2][1] != 1 {
		t.Errorf("single-node job modified: %v", m[2])
	}
}

func TestFeasible(t *testing.T) {
	capacity := []int{4, 4}
	if !Feasible(Matrix{{4, 0}, {0, 4}}, capacity, true) {
		t.Error("feasible matrix reported infeasible")
	}
	if Feasible(Matrix{{5, 0}}, capacity, false) {
		t.Error("over-capacity matrix reported feasible")
	}
	// Two distributed jobs sharing node 0.
	shared := Matrix{{2, 2}, {1, 1}}
	if Feasible(shared, []int{4, 4}, true) {
		t.Error("interference violation reported feasible")
	}
	if !Feasible(shared, []int{4, 4}, false) {
		t.Error("same matrix should be feasible without avoidance")
	}
}

// Property: after repair, any random matrix satisfies capacity and the
// interference constraint.
func TestRepairProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		jobs := 1 + rng.Intn(8)
		nodes := 1 + rng.Intn(6)
		capacity := make([]int, nodes)
		for n := range capacity {
			capacity[n] = 1 + rng.Intn(4)
		}
		m := NewMatrix(jobs, nodes)
		for j := 0; j < jobs; j++ {
			for n := 0; n < nodes; n++ {
				m[j][n] = rng.Intn(6)
			}
		}
		RepairCapacity(m, capacity, rng)
		RepairInterference(m, rng)
		return Feasible(m, capacity, true)
	}
	if err := quick.Check(prop, testutil.QuickConfig(300)); err != nil {
		t.Error(err)
	}
}

func TestRepairCapacityHeavyOverload(t *testing.T) {
	// A node overloaded by many jobs at once (the worst case for the old
	// per-GPU re-scan) must still be repaired to exactly its capacity,
	// only ever by decrementing, and without touching other columns.
	rng := rand.New(rand.NewSource(21))
	jobs, nodes := 40, 8
	capacity := make([]int, nodes)
	for n := range capacity {
		capacity[n] = 4
	}
	m := NewMatrix(jobs, nodes)
	for j := range m {
		for n := range m[j] {
			m[j][n] = rng.Intn(4)
		}
	}
	orig := m.Clone()
	RepairCapacity(m, capacity, rng)
	before, after := usageOf(orig, nodes), usageOf(m, nodes)
	for n := range capacity {
		if after[n] > capacity[n] {
			t.Errorf("node %d still over capacity: %d", n, after[n])
		}
		if before[n] >= capacity[n] && after[n] != min(before[n], capacity[n]) {
			t.Errorf("node %d: usage %d, want exactly %d (shed only the excess)",
				n, after[n], capacity[n])
		}
	}
	for j := range m {
		for n := range m[j] {
			if m[j][n] > orig[j][n] {
				t.Errorf("repair increased m[%d][%d]: %d -> %d", j, n, orig[j][n], m[j][n])
			}
			if m[j][n] < 0 {
				t.Errorf("negative allocation m[%d][%d] = %d", j, n, m[j][n])
			}
		}
	}
}

// feasibleScan is the former FeasibleSub, kept as the oracle for the
// one-pass one: a column sum per node, then per node a scan of every job
// against spans computed up front.
func feasibleScan(m Matrix, capacity []int, avoidance bool, blocked []bool, extraSpan []int) bool {
	for n := range capacity {
		sum := 0
		for j := range m {
			sum += m[j][n]
		}
		if sum > capacity[n] {
			return false
		}
	}
	if !avoidance {
		return true
	}
	for n := range capacity {
		dist := 0
		for j := range m {
			span := m.JobNodes(j)
			if extraSpan != nil {
				span += extraSpan[j]
			}
			if m[j][n] > 0 && span > 1 {
				dist++
			}
		}
		if dist > 1 || (dist > 0 && blocked != nil && blocked[n]) {
			return false
		}
	}
	return true
}

// TestFeasibleMatchesScanOracle compares Feasible and FeasibleSub with the
// per-node scan on random matrices: empty, a single row, filled exactly to
// capacity, one GPU over, and sparse ones where the interference
// constraint decides.
func TestFeasibleMatchesScanOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(6)
		capacity := make([]int, nodes)
		for n := range capacity {
			capacity[n] = rng.Intn(6)
		}
		var m Matrix
		switch kind := rng.Intn(5); kind {
		case 0: // empty
			m = Matrix{}
		case 1: // single row
			m = NewMatrix(1, nodes)
			for n, c := range capacity {
				m[0][n] = rng.Intn(c + 2)
			}
		case 2, 3: // exact fit, then one over
			m = NewMatrix(1+rng.Intn(5), nodes)
			for n, c := range capacity {
				for ; c > 0; c-- {
					m[rng.Intn(len(m))][n]++
				}
			}
			if kind == 3 {
				m[rng.Intn(len(m))][rng.Intn(nodes)]++
			}
		default: // sparse: capacity rarely decides, interference does
			m = NewMatrix(rng.Intn(7), nodes)
			for _, row := range m {
				for n := range row {
					if rng.Intn(4) == 0 {
						row[n] = 1
					}
				}
			}
		}
		var blocked []bool
		var extraSpan []int
		if rng.Intn(2) == 0 {
			blocked = make([]bool, nodes)
			for n := range blocked {
				blocked[n] = rng.Intn(4) == 0
			}
			extraSpan = make([]int, len(m))
			for j := range extraSpan {
				extraSpan[j] = rng.Intn(2)
			}
		}
		for _, avoidance := range []bool{false, true} {
			if Feasible(m, capacity, avoidance) != feasibleScan(m, capacity, avoidance, nil, nil) {
				return false
			}
			if FeasibleSub(m, capacity, avoidance, blocked, extraSpan) != feasibleScan(m, capacity, avoidance, blocked, extraSpan) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickConfig(3000)); err != nil {
		t.Error(err)
	}
}

// repairCapacityColumns is the former RepairCapacity, which summed each
// node's column on its own before repairing it. It is the oracle for the
// one-pass version's results and rng draw order.
func repairCapacityColumns(m Matrix, capacity []int, rng *rand.Rand) {
	var cand []int
	for n := range capacity {
		over := -capacity[n]
		for j := range m {
			over += m[j][n]
		}
		if over <= 0 {
			continue
		}
		cand = cand[:0]
		for j := range m {
			if m[j][n] > 0 {
				cand = append(cand, j)
			}
		}
		for ; over > 0; over-- {
			i := rng.Intn(len(cand))
			j := cand[i]
			m[j][n]--
			if m[j][n] == 0 {
				cand[i] = cand[len(cand)-1]
				cand = cand[:len(cand)-1]
			}
		}
	}
}

// TestRepairCapacityDrawOrderPinned repairs 400 random over-subscribed
// matrices with RepairCapacity, with the GA's scratch-backed repair and
// with the column-sum oracle from the same seed: the matrices and the
// rng's next draw must agree, which pins the eviction decisions and the
// draw sequence that fixed-seed GA traces depend on. The GA's repair also
// runs the interference pass on the spans capacity repair kept current,
// under random DistBlocked and ExtraSpan on every other such iteration,
// checked against the column-scan oracle of each repair, and so does the
// exported pair; the GA's occupant lists live in one scratch cut to each
// iteration's shape, so every tally starts from the lists, counts and
// spans of a differently shaped problem.
func TestRepairCapacityDrawOrderPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const maxJobs, maxNodes = 12, 8
	shared := newOccupancy(maxJobs, maxNodes)
	shared.rows = shared.rows[:cap(shared.rows)] // one array, cut anew per shape
	for iter := 0; iter < 400; iter++ {
		jobs, nodes := 1+rng.Intn(maxJobs), 1+rng.Intn(maxNodes)
		capacity := make([]int, nodes)
		for n := range capacity {
			capacity[n] = rng.Intn(5)
		}
		in := NewMatrix(jobs, nodes)
		for _, row := range in {
			for n := range row {
				row[n] = rng.Intn(5)
			}
		}
		seed := rng.Int63()

		got, want := in.Clone(), in.Clone()
		gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		RepairCapacity(got, capacity, gotRng)
		repairCapacityColumns(want, capacity, wantRng)
		if !got.Equal(want) {
			t.Fatalf("iter %d: one-pass repair diverges from the column oracle\nin   %v\ncap  %v\ngot  %v\nwant %v",
				iter, in, capacity, got, want)
		}
		if a, b := gotRng.Int63(), wantRng.Int63(); a != b {
			t.Fatalf("iter %d: rng drew a different number of times (next draw %d, oracle %d)", iter, a, b)
		}

		avoidance := iter%2 == 0
		var blocked []bool
		var extraSpan []int
		if iter%4 == 0 {
			blocked, extraSpan = make([]bool, nodes), make([]int, jobs)
			for n := range blocked {
				blocked[n] = rng.Intn(4) == 0
			}
			for j := range extraSpan {
				extraSpan[j] = rng.Intn(2)
			}
		}
		g := &GA{
			prob: Problem{Capacity: capacity, Jobs: jobs, InterferenceAvoidance: avoidance, DistBlocked: blocked, ExtraSpan: extraSpan},
			rng:  rand.New(rand.NewSource(seed)),
			occ: occupancy{
				usage: shared.usage[:nodes], count: shared.count[:nodes], span: shared.span[:jobs],
				rows: shared.rows[:jobs*nodes], cand: shared.rows[jobs*nodes:][:jobs],
			},
		}
		gotRng, wantRng = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		viaGA, viaFuncs, viaOracles := in.Clone(), in.Clone(), in.Clone()
		for rep := 0; rep < 2; rep++ { // the second call sees its own dirty scratch
			g.repair(viaGA)
			RepairCapacity(viaFuncs, capacity, gotRng)
			repairCapacityColumns(viaOracles, capacity, wantRng)
			if avoidance {
				RepairInterferenceSub(viaFuncs, gotRng, blocked, extraSpan)
				repairInterferenceScan(viaOracles, wantRng, blocked, extraSpan)
			}
			if !viaGA.Equal(viaOracles) || !viaFuncs.Equal(viaOracles) {
				t.Fatalf("iter %d rep %d: repair diverges from the column-scan oracles\nin       %v\nGA       %v\nexported %v\nwant     %v",
					iter, rep, in, viaGA, viaFuncs, viaOracles)
			}
			if a, b, c := g.rng.Int63(), gotRng.Int63(), wantRng.Int63(); a != c || b != c {
				t.Fatalf("iter %d rep %d: repair drew a different number of times than the oracles", iter, rep)
			}
			if avoidance && !FeasibleSub(viaGA, capacity, true, blocked, extraSpan) {
				t.Fatalf("iter %d rep %d: repaired matrix infeasible: %v", iter, rep, viaGA)
			}
			// Overload it again for the second repetition.
			for _, m := range []Matrix{viaGA, viaFuncs, viaOracles} {
				m[0][0] += 3
			}
		}
	}
}

// repairInterferenceScan is the former one-pass RepairInterferenceSub, which
// found each node's candidates by scanning its column through every row.
// It is the oracle for the occupant lists under DistBlocked and ExtraSpan,
// where the rescan-until-stable one (repairInterferenceStable) has no say.
func repairInterferenceScan(m Matrix, rng *rand.Rand, blocked []bool, extraSpan []int) {
	if len(m) == 0 {
		return
	}
	span := make([]int, len(m))
	for j := range m {
		span[j] = m.JobNodes(j)
		if extraSpan != nil {
			span[j] += extraSpan[j]
		}
	}
	for n := range m[0] {
		if blocked != nil && blocked[n] {
			for j := range m {
				if m[j][n] > 0 && span[j] > 1 {
					m[j][n] = 0
					span[j]--
				}
			}
			continue
		}
		var dist []int
		for j := range m {
			if m[j][n] > 0 && span[j] > 1 {
				dist = append(dist, j)
			}
		}
		for len(dist) > 1 {
			i := rng.Intn(len(dist))
			m[dist[i]][n] = 0
			span[dist[i]]--
			dist = append(dist[:i], dist[i+1:]...)
		}
	}
}

// TestGARepairAllocatesNothing pins the point of the per-GA scratch:
// repairing an offspring allocates nothing.
func TestGARepairAllocatesNothing(t *testing.T) {
	prob := Problem{Capacity: []int{4, 4, 4, 4}, Jobs: 12, Fitness: simpleFitness, InterferenceAvoidance: true}
	g := New(prob, Options{Population: 4, Workers: 1}, rand.New(rand.NewSource(3)), nil)
	over := NewMatrix(prob.Jobs, len(prob.Capacity))
	for _, row := range over {
		for n := range row {
			row[n] = 2
		}
	}
	m := over.Clone()
	g.repair(m)
	if allocs := testing.AllocsPerRun(50, func() {
		m.CopyFrom(over)
		g.repair(m)
	}); allocs != 0 {
		t.Errorf("GA repair allocates %v times per offspring, want 0", allocs)
	}
	if !Feasible(m, prob.Capacity, true) {
		t.Errorf("repaired matrix infeasible: %v", m)
	}
}

// simpleFitness rewards total allocated GPUs with diminishing returns and
// a mild spread penalty — shaped like the real speedup objective.
func simpleFitness(m Matrix) float64 {
	f := 0.0
	for j := range m {
		k := float64(m.JobGPUs(j))
		n := float64(m.JobNodes(j))
		if k > 0 {
			f += k / (1 + 0.05*k) * (1 - 0.02*(n-1))
		}
	}
	return f
}

func TestGAImprovesFitness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prob := Problem{
		Capacity:              []int{4, 4, 4, 4},
		Jobs:                  6,
		Fitness:               simpleFitness,
		InterferenceAvoidance: true,
	}
	g := New(prob, Options{Population: 40}, rng, nil)
	_, before := g.Best()
	best, after := g.Run(50)
	if after < before {
		t.Errorf("fitness decreased: %v -> %v", before, after)
	}
	if !Feasible(best, prob.Capacity, true) {
		t.Errorf("best matrix infeasible: %v", best)
	}
	// With 16 GPUs and 6 jobs the optimum allocates every GPU.
	total := 0
	for j := range best {
		total += best.JobGPUs(j)
	}
	if total < 14 {
		t.Errorf("GA left too many GPUs idle: allocated %d of 16", total)
	}
}

func TestGAPopulationFeasibleEveryGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prob := Problem{
		Capacity:              []int{2, 3, 4},
		Jobs:                  5,
		Fitness:               simpleFitness,
		InterferenceAvoidance: true,
	}
	g := New(prob, Options{Population: 20}, rng, nil)
	for gen := 0; gen < 10; gen++ {
		g.Step()
		for i, m := range g.Population() {
			if !Feasible(m, prob.Capacity, true) {
				t.Fatalf("gen %d member %d infeasible: %v", gen, i, m)
			}
		}
	}
}

func TestGASeedsCarryOver(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prob := Problem{
		Capacity: []int{4, 4},
		Jobs:     2,
		Fitness:  simpleFitness,
	}
	seed := Matrix{{4, 0}, {0, 4}} // the optimum for this fitness shape
	g := New(prob, Options{Population: 10}, rng, []Matrix{seed})
	best, _ := g.Best()
	if !best.Equal(seed) {
		t.Errorf("seeded optimum not retained as best: %v", best)
	}
}

func TestGASeedsWrongShapeIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	prob := Problem{Capacity: []int{4, 4}, Jobs: 2, Fitness: simpleFitness}
	bad := Matrix{{1, 1, 1}} // wrong shape
	g := New(prob, Options{Population: 5}, rng, []Matrix{bad})
	for _, m := range g.Population() {
		if len(m) != 2 || len(m[0]) != 2 {
			t.Fatalf("population contains wrong-shape matrix: %v", m)
		}
	}
}

func TestGAZeroMatrixAlwaysInInitialPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prob := Problem{Capacity: []int{1}, Jobs: 3, Fitness: simpleFitness}
	g := New(prob, Options{Population: 8}, rng, nil)
	found := false
	zero := NewMatrix(3, 1)
	for _, m := range g.Population() {
		if m.Equal(zero) {
			found = true
		}
	}
	if !found {
		t.Error("zero matrix missing from initial population")
	}
}

func TestGAZeroMatrixReservedWithFullSeeds(t *testing.T) {
	// Even when carried-over seeds alone would fill the population (the
	// common case: Pollux prepends the current allocation to the previous
	// interval's population), one slot stays reserved for the zero matrix.
	rng := rand.New(rand.NewSource(12))
	prob := Problem{Capacity: []int{4, 4}, Jobs: 2, Fitness: simpleFitness}
	seeds := make([]Matrix, 10)
	for i := range seeds {
		seeds[i] = Matrix{{2, 0}, {0, 2}}
	}
	g := New(prob, Options{Population: 8}, rng, seeds)
	zero := NewMatrix(2, 2)
	found := false
	for _, m := range g.Population() {
		if m.Equal(zero) {
			found = true
		}
	}
	if !found {
		t.Error("zero matrix dropped when seeds fill the population")
	}
	if len(g.Population()) != 8 {
		t.Errorf("population size = %d, want 8", len(g.Population()))
	}
}

func TestGAPopulationOneKeepsSeed(t *testing.T) {
	// With a single-member population the one slot must go to the seed
	// (the scheduler's current allocation), not the zero matrix.
	rng := rand.New(rand.NewSource(14))
	prob := Problem{Capacity: []int{4, 4}, Jobs: 2, Fitness: simpleFitness}
	seed := Matrix{{4, 0}, {0, 4}}
	g := New(prob, Options{Population: 1}, rng, []Matrix{seed})
	pop := g.Population()
	if len(pop) != 1 {
		t.Fatalf("population size = %d, want 1", len(pop))
	}
	if !pop[0].Equal(seed) {
		t.Errorf("population = %v, want the seed %v", pop[0], seed)
	}
	// Without seeds, the single member is the zero matrix.
	g = New(prob, Options{Population: 1}, rng, nil)
	if !g.Population()[0].Equal(NewMatrix(2, 2)) {
		t.Errorf("unseeded single member = %v, want zero matrix", g.Population()[0])
	}
}

func TestGAWorkersBitIdentical(t *testing.T) {
	// Concurrent fitness evaluation must not change results: offspring are
	// scored into fixed slots and the rng never leaves the caller's
	// goroutine, so any worker count reproduces the serial run exactly.
	run := func(workers int) (Matrix, float64) {
		rng := rand.New(rand.NewSource(77))
		prob := Problem{
			Capacity:              []int{4, 4, 4, 4},
			Jobs:                  6,
			Fitness:               simpleFitness,
			InterferenceAvoidance: true,
		}
		g := New(prob, Options{Population: 30, Workers: workers}, rng, nil)
		return g.Run(25)
	}
	m1, f1 := run(1)
	m8, f8 := run(8)
	if !m1.Equal(m8) {
		t.Errorf("Workers 1 vs 8 best matrices differ:\n%v\n%v", m1, m8)
	}
	//pollux:floateq-ok bit-identical determinism gate: the worker count must not change the result at all
	if f1 != f8 {
		t.Errorf("Workers 1 vs 8 fitness differ: %v vs %v", f1, f8)
	}
}

func TestGADeterministicGivenSeed(t *testing.T) {
	run := func() Matrix {
		rng := rand.New(rand.NewSource(99))
		prob := Problem{
			Capacity: []int{4, 4, 4},
			Jobs:     4,
			Fitness:  simpleFitness,
		}
		g := New(prob, Options{Population: 20}, rng, nil)
		best, _ := g.Run(20)
		return best
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Errorf("GA not deterministic for fixed seed:\n%v\n%v", a, b)
	}
}

func TestGARespectsScarcity(t *testing.T) {
	// More jobs than GPUs: repaired allocations never exceed capacity and
	// fitness still improves by giving GPUs to someone.
	rng := rand.New(rand.NewSource(13))
	prob := Problem{
		Capacity: []int{2},
		Jobs:     5,
		Fitness:  simpleFitness,
	}
	g := New(prob, Options{Population: 16}, rng, nil)
	best, f := g.Run(30)
	if !Feasible(best, prob.Capacity, false) {
		t.Fatalf("infeasible best: %v", best)
	}
	if f <= 0 {
		t.Errorf("fitness = %v, want > 0 (GPUs should be used)", f)
	}
}

// repairInterferenceStable is the pre-incremental RepairInterference
// (rescan-until-stable, JobNodes recomputed fresh at every node visit),
// kept as the oracle for the one-pass implementation: same rng seed must
// yield the bit-identical repaired matrix, which pins both the eviction
// decisions and the rng draw order that fixed-seed GA traces depend on.
func repairInterferenceStable(m Matrix, rng *rand.Rand) {
	if len(m) == 0 {
		return
	}
	nodes := len(m[0])
	for changed := true; changed; {
		changed = false
		for n := 0; n < nodes; n++ {
			var dist []int
			for j := range m {
				if m[j][n] > 0 && m.JobNodes(j) > 1 {
					dist = append(dist, j)
				}
			}
			for len(dist) > 1 {
				i := rng.Intn(len(dist))
				m[dist[i]][n] = 0
				dist = append(dist[:i], dist[i+1:]...)
				changed = true
			}
		}
	}
}

// checkNoOverEviction verifies the Sec. 4.2.1 eviction invariants between
// an input matrix and its repaired result: only distributed jobs
// interfere, so a job spanning a single node must never be touched, no
// job may lose its entire allocation (the final eviction of a fully
// cleared row would necessarily have hit a job whose span had already
// dropped to one node), and repair only zeroes whole per-node entries.
func checkNoOverEviction(t *testing.T, before, after Matrix) {
	t.Helper()
	for j := range before {
		if before.JobNodes(j) > 0 && after.JobNodes(j) == 0 {
			t.Fatalf("job %d over-evicted to zero allocation:\nbefore %v\nafter  %v",
				j, before[j], after[j])
		}
		if before.JobNodes(j) <= 1 {
			for n := range before[j] {
				if after[j][n] != before[j][n] {
					t.Fatalf("single-node job %d modified at node %d: %d -> %d",
						j, n, before[j][n], after[j][n])
				}
			}
		}
		for n := range before[j] {
			if after[j][n] != 0 && after[j][n] != before[j][n] {
				t.Fatalf("job %d node %d partially modified: %d -> %d (evictions must zero whole entries)",
					j, n, before[j][n], after[j][n])
			}
		}
	}
}

// TestRepairInterferenceNoOverEviction is the regression test for the
// stale-span over-eviction hazard: span bookkeeping must stay live while
// evictions proceed, because evicting job i from node n can drop i's span
// to a single node, after which i no longer interferes anywhere and must
// not be evicted again. It also locks the one-pass rewrite to the old
// stable-scan behaviour bit for bit.
func TestRepairInterferenceNoOverEviction(t *testing.T) {
	// Crafted stale-span scenario: a and b share nodes 0 and 1, c spans
	// nodes 1 and 2. Whichever eviction order the rng picks, a job whose
	// span drops to one node must keep that last allocation.
	for seed := int64(0); seed < 200; seed++ {
		m := Matrix{
			{2, 1, 0},
			{1, 2, 0},
			{0, 1, 2},
		}
		before := m.Clone()
		RepairInterference(m, rand.New(rand.NewSource(seed)))
		checkNoOverEviction(t, before, m)
	}

	// Fuzz random occupancies: invariants hold, the interference
	// constraint is restored in one pass, and the result matches the
	// stable-scan oracle under the same rng seed.
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 400; iter++ {
		jobs, nodes := 1+rng.Intn(8), 1+rng.Intn(6)
		m := NewMatrix(jobs, nodes)
		for j := range m {
			for n := range m[j] {
				if rng.Float64() < 0.45 {
					m[j][n] = 1 + rng.Intn(3)
				}
			}
		}
		before := m.Clone()
		ref := m.Clone()
		seed := rng.Int63()
		RepairInterference(m, rand.New(rand.NewSource(seed)))
		repairInterferenceStable(ref, rand.New(rand.NewSource(seed)))
		if !m.Equal(ref) {
			t.Fatalf("iter %d: one-pass result diverges from stable-scan oracle\nin   %v\ngot  %v\nwant %v",
				iter, before, m, ref)
		}
		checkNoOverEviction(t, before, m)
		for n := 0; n < nodes; n++ {
			dist := 0
			for j := range m {
				if m[j][n] > 0 && m.JobNodes(j) > 1 {
					dist++
				}
			}
			if dist > 1 {
				t.Fatalf("iter %d: node %d still hosts %d distributed jobs after repair:\n%v",
					iter, n, dist, m)
			}
		}
	}
}

// stepOracle is the pre-reuse Step (clone-per-offspring, scored structs,
// fresh slices every generation), kept as the oracle for the
// buffer-recycling implementation: same seed must yield bit-identical
// populations, scores, and rng draw order across generations.
func stepOracle(g *GA) {
	offspring := make([]Matrix, 0, 2*len(g.pop))
	for _, m := range g.pop {
		c := m.Clone()
		g.mutate(c)
		g.repair(c)
		offspring = append(offspring, c)
	}
	for i := 0; i < len(g.pop); i++ {
		a := g.pop[g.tournament()]
		b := g.pop[g.tournament()]
		c := NewMatrix(g.prob.Jobs, len(g.prob.Capacity))
		g.crossoverInto(c, a, b)
		g.repair(c)
		offspring = append(offspring, c)
	}
	offScores := make([]float64, len(offspring))
	g.evalScores(offspring, offScores)
	type scored struct {
		m Matrix
		f float64
	}
	all := make([]scored, 0, len(g.pop)+len(offspring))
	for i, m := range g.pop {
		all = append(all, scored{m, g.scores[i]})
	}
	for i, m := range offspring {
		all = append(all, scored{m, offScores[i]})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].f > all[j].f })
	g.pop = make([]Matrix, 0, g.opts.Population)
	g.scores = make([]float64, 0, g.opts.Population)
	for i := 0; i < g.opts.Population && i < len(all); i++ {
		g.pop = append(g.pop, all[i].m)
		g.scores = append(g.scores, all[i].f)
	}
}

func TestStepBufferReuseBitIdentical(t *testing.T) {
	// Every fixed-seed sim baseline depends on the GA trace staying
	// byte-stable, so the allocation-reuse Step must match the historical
	// clone-per-offspring implementation generation by generation.
	newGA := func() *GA {
		rng := rand.New(rand.NewSource(123))
		prob := Problem{
			Capacity:              []int{4, 4, 4, 2},
			Jobs:                  7,
			Fitness:               simpleFitness,
			InterferenceAvoidance: true,
		}
		return New(prob, Options{Population: 24}, rng, []Matrix{NewMatrix(7, 4)})
	}
	got, want := newGA(), newGA()
	for gen := 0; gen < 15; gen++ {
		got.Step()
		stepOracle(want)
		if len(got.pop) != len(want.pop) {
			t.Fatalf("gen %d: population size %d, want %d", gen, len(got.pop), len(want.pop))
		}
		for i := range got.pop {
			if !got.pop[i].Equal(want.pop[i]) {
				t.Fatalf("gen %d member %d diverges from clone-path oracle:\ngot  %v\nwant %v",
					gen, i, got.pop[i], want.pop[i])
			}
			//pollux:floateq-ok bit-identity gate against the historical implementation
			if got.scores[i] != want.scores[i] {
				t.Fatalf("gen %d member %d score %v, want %v", gen, i, got.scores[i], want.scores[i])
			}
		}
	}
}

func TestRepairInterferenceSubBlocked(t *testing.T) {
	// Node 1 is blocked (a distributed job outside the sub-problem lives
	// there): distributed sub-problem jobs must vacate it; the single-node
	// job may stay.
	m := Matrix{
		{2, 2, 0}, // distributed: must leave node 1
		{0, 1, 0}, // single-node: allowed to share with the outside job
		{0, 2, 2}, // distributed: must leave node 1
	}
	rng := rand.New(rand.NewSource(3))
	RepairInterferenceSub(m, rng, []bool{false, true, false}, nil)
	if m[0][1] != 0 || m[2][1] != 0 {
		t.Errorf("distributed jobs remain on blocked node: %v", m)
	}
	if m[1][1] != 1 {
		t.Errorf("single-node job evicted from blocked node: %v", m[1])
	}
	if !FeasibleSub(m, []int{8, 8, 8}, true, []bool{false, true, false}, nil) {
		t.Errorf("result infeasible: %v", m)
	}
}

func TestRepairInterferenceSubExtraSpan(t *testing.T) {
	// Job 0 sits on one local node but holds GPUs in another rack
	// (ExtraSpan 1), so it is distributed; sharing node 0 with the locally
	// distributed job 1 violates Sec. 4.2.1 and one of them must go.
	m := Matrix{
		{2, 0},
		{1, 1},
	}
	extra := []int{1, 0}
	rng := rand.New(rand.NewSource(4))
	before := m.Clone()
	RepairInterferenceSub(m, rng, nil, extra)
	if !FeasibleSub(m, []int{4, 4}, true, nil, extra) {
		t.Errorf("extra-span conflict not repaired: %v", m)
	}
	if m.Equal(before) {
		t.Errorf("repair left conflicting matrix unchanged: %v", m)
	}
	// Without the extra span the same matrix is fine and must be untouched.
	m2 := before.Clone()
	RepairInterferenceSub(m2, rand.New(rand.NewSource(4)), nil, nil)
	if !m2.Equal(before) {
		t.Errorf("span-1 job evicted without extra span: %v", m2)
	}
}

func TestRepairInterferenceSubNilMatchesBase(t *testing.T) {
	// nil blocked/extraSpan must reproduce RepairInterference exactly,
	// including the rng draw order.
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 200; iter++ {
		jobs, nodes := 1+rng.Intn(8), 1+rng.Intn(6)
		m := NewMatrix(jobs, nodes)
		for j := range m {
			for n := range m[j] {
				if rng.Float64() < 0.45 {
					m[j][n] = 1 + rng.Intn(3)
				}
			}
		}
		ref := m.Clone()
		seed := rng.Int63()
		RepairInterferenceSub(m, rand.New(rand.NewSource(seed)), nil, nil)
		repairInterferenceStable(ref, rand.New(rand.NewSource(seed)))
		if !m.Equal(ref) {
			t.Fatalf("iter %d: nil-constraint sub repair diverges from oracle\ngot  %v\nwant %v", iter, m, ref)
		}
	}
}

// mutateDense is the former GA.mutate, one Bernoulli(1/N) coin per cell:
// the paper's operator as written, kept as the distribution oracle for the
// gap-sampling one.
func mutateDense(m Matrix, capacity []int, rng *rand.Rand) {
	p := 1.0 / float64(len(capacity))
	for j := range m {
		for n := range m[j] {
			if rng.Float64() < p {
				m[j][n] = rng.Intn(capacity[n] + 1)
			}
		}
	}
}

// TestSparseMutationSameDistribution holds the geometric-gap sampler to the
// per-cell distribution of the dense scan: every cell is hit at rate 1/N
// wherever it sits in the matrix, and a hit is uniform over [0, cap_n].
// Both operators are counted over the same number of offspring and each
// count is held to its binomial expectation within 5σ; N = 1 (every cell
// mutates) and N = 2 (half of them) are the edges of the gap formula.
func TestSparseMutationSameDistribution(t *testing.T) {
	const jobs, trials = 6, 4000
	for _, capacity := range [][]int{{3}, {2, 5}, {4, 1, 3, 0, 4, 2, 6, 4}} {
		nodes := len(capacity)
		prob := Problem{Capacity: capacity, Jobs: jobs, Fitness: simpleFitness}
		// Population 1 is the zero matrix alone: New draws nothing.
		g := New(prob, Options{Population: 1, Workers: 1}, rand.New(rand.NewSource(55)), nil)
		denseRng := rand.New(rand.NewSource(55))
		operators := []struct {
			name   string
			mutate func(Matrix)
		}{
			{"sparse", g.mutate},
			{"dense", func(m Matrix) { mutateDense(m, capacity, denseRng) }},
		}
		for _, op := range operators {
			hits := NewMatrix(jobs, nodes)
			values := make([][]int, nodes) // values[n][v]: hits on node n that drew v
			for n, c := range capacity {
				values[n] = make([]int, c+1)
			}
			m := NewMatrix(jobs, nodes)
			for trial := 0; trial < trials; trial++ {
				for _, row := range m {
					for n := range row {
						row[n] = -1 // sentinel no rng draw can produce
					}
				}
				op.mutate(m)
				for j, row := range m {
					for n, v := range row {
						if v != -1 {
							hits[j][n]++
							values[n][v]++
						}
					}
				}
			}
			within := func(what string, got, n int, p float64) {
				t.Helper()
				mean, sigma := float64(n)*p, math.Sqrt(float64(n)*p*(1-p))
				if math.Abs(float64(got)-mean) > 5*sigma {
					t.Errorf("N=%d %s: %s = %d, want %.0f ± %.0f", nodes, op.name, what, got, mean, 5*sigma)
				}
			}
			for j, row := range hits {
				for n, h := range row {
					within(fmt.Sprintf("hits on cell (%d,%d)", j, n), h, trials, 1/float64(nodes))
				}
			}
			for n, hist := range values {
				onNode := 0
				for _, c := range hist {
					onNode += c
				}
				for v, c := range hist {
					within(fmt.Sprintf("node %d value %d", n, v), c, onNode, 1/float64(len(hist)))
				}
			}
		}
	}
}

func TestSparseMutationSingleNode(t *testing.T) {
	// p = 1/N = 1 at a single node: every cell must mutate, as in the
	// dense scan.
	rng := rand.New(rand.NewSource(56))
	prob := Problem{Capacity: []int{50}, Jobs: 5, Fitness: simpleFitness}
	g := New(prob, Options{Population: 1, Workers: 1}, rng, nil)
	m := NewMatrix(5, 1)
	for j := range m {
		m[j][0] = -1
	}
	g.mutate(m)
	for j := range m {
		if m[j][0] == -1 {
			t.Errorf("job %d cell not mutated at nodes=1", j)
		}
	}
}

func TestSparseMutationGAFeasibleAndImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	prob := Problem{
		Capacity:              []int{4, 4, 4, 4},
		Jobs:                  6,
		Fitness:               simpleFitness,
		InterferenceAvoidance: true,
	}
	g := New(prob, Options{Population: 30}, rng, nil)
	_, before := g.Best()
	best, after := g.Run(40)
	if after < before {
		t.Errorf("fitness decreased under sparse mutation: %v -> %v", before, after)
	}
	if !Feasible(best, prob.Capacity, true) {
		t.Errorf("best matrix infeasible: %v", best)
	}
}

// TestNewWithoutNodes is the regression test for a problem with jobs and
// no nodes, which is what a cluster that lost every node hands the
// scheduler: New used to panic in rng.Intn(0) while filling the random
// population. Every member is the all-paused matrix of zero-width rows, and
// generations run on it.
func TestNewWithoutNodes(t *testing.T) {
	prob := Problem{Jobs: 3, Fitness: simpleFitness, InterferenceAvoidance: true}
	g := New(prob, Options{Population: 6, Workers: 1}, rand.New(rand.NewSource(59)), nil)
	best, f := g.Run(3)
	if len(g.Population()) != 6 {
		t.Fatalf("population size = %d, want 6", len(g.Population()))
	}
	if len(best) != 3 || len(best[0]) != 0 || f != 0 {
		t.Errorf("best = %v with fitness %v, want three zero-width rows scoring 0", best, f)
	}
}

func TestStatsCountFitnessWork(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	prob := Problem{Capacity: []int{4, 4, 4}, Jobs: 5, Fitness: simpleFitness}
	g := New(prob, Options{Population: 10}, rng, nil)
	s := g.Stats()
	if s.FitnessCalls != 10 {
		t.Errorf("initial FitnessCalls = %d, want 10", s.FitnessCalls)
	}
	if want := int64(10 * 5 * 3); s.CellsScored != want {
		t.Errorf("initial CellsScored = %d, want %d", s.CellsScored, want)
	}
	g.Step()
	s = g.Stats()
	if want := int64(10 + 20); s.FitnessCalls != want {
		t.Errorf("FitnessCalls after one generation = %d, want %d", s.FitnessCalls, want)
	}
	if want := int64(30 * 5 * 3); s.CellsScored != want {
		t.Errorf("CellsScored after one generation = %d, want %d", s.CellsScored, want)
	}
}
