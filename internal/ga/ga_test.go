package ga

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/detrand"
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

// rowGPUs and rowNodes are a row's GPU total and the number of nodes it
// holds GPUs on.
func rowGPUs(row []int) int {
	sum := 0
	for _, g := range row {
		sum += g
	}
	return sum
}

func rowNodes(row []int) int {
	n := 0
	for _, g := range row {
		if g > 0 {
			n++
		}
	}
	return n
}

func TestMatrixAccessors(t *testing.T) {
	m := Matrix{{2, 0, 1}, {0, 3, 0}}
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
			span := rowNodes(m[j])
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
	shared, _ := newOccupancy(maxJobs, maxNodes, 0)
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
			c := genomeOf(viaGA)
			g.repair(c)
			viaGA = cellsMatrix(c, jobs, nodes)
			if want := maskOf(viaGA); !slices.Equal(c.mask, want) {
				t.Fatalf("iter %d rep %d: repair left mask %b, cells say %b", iter, rep, c.mask, want)
			}
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
		span[j] = rowNodes(m[j])
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
// repairing an offspring, in a buffer of the GA's own, allocates nothing.
// The rows are 40 cells wide, so they straddle mask words, and every cell
// starts positive.
func TestGARepairAllocatesNothing(t *testing.T) {
	capacity := make([]int, 40)
	for n := range capacity {
		capacity[n] = 4
	}
	prob := Problem{Capacity: capacity, Jobs: 12, Fitness: simpleFitness, InterferenceAvoidance: true}
	g := New(prob, Options{Population: 4}, rand.New(rand.NewSource(3)), nil)
	over := NewMatrix(prob.Jobs, len(prob.Capacity))
	for _, row := range over {
		for n := range row {
			row[n] = 2
		}
	}
	overGenome, c := genomeOf(over), genomeOf(over)
	if allocs := testing.AllocsPerRun(50, func() {
		copy(c.cells, overGenome.cells)
		copy(c.mask, overGenome.mask)
		g.repair(c)
	}); allocs != 0 {
		t.Errorf("GA repair allocates %v times per offspring, want 0", allocs)
	}
	m := cellsMatrix(c, prob.Jobs, len(prob.Capacity))
	if !Feasible(m, prob.Capacity, true) {
		t.Errorf("repaired matrix infeasible: %v", m)
	}
	if !slices.Equal(c.mask, maskOf(m)) {
		t.Errorf("repair left mask %b, cells say %b", c.mask, maskOf(m))
	}
}

// withScorers lets GOMAXPROCS > 1 start scorers on matrices of any size for
// the rest of the test, however few cells a generation scores.
func withScorers(t *testing.T) {
	old := minScorerCells
	minScorerCells = 0
	t.Cleanup(func() { minScorerCells = old })
}

// maskOf is m's positive-cell mask, read off its cells.
func maskOf(m Matrix) []uint32 {
	if len(m) == 0 {
		return nil
	}
	nodes := len(m[0])
	mask := make([]uint32, maskWords(len(m), nodes))
	for j, row := range m {
		for n, v := range row {
			if i := j*nodes + n; v > 0 {
				mask[i/wordBits] |= 1 << (i % wordBits)
			}
		}
	}
	return mask
}

// genomeOf loads m into a genome of its own.
func genomeOf(m Matrix) genome {
	nodes := 0
	if len(m) > 0 {
		nodes = len(m[0])
	}
	c := genome{make([]uint16, len(m)*nodes), make([]uint32, maskWords(len(m), nodes))}
	if !c.load(m, nodes) {
		panic(fmt.Sprintf("matrix %v does not fit a genome", m))
	}
	return c
}

// cloneGenome deep-copies c.
func cloneGenome(c genome) genome {
	return genome{slices.Clone(c.cells), slices.Clone(c.mask)}
}

// cellsMatrix is c as a dense jobs × nodes matrix, read off its cells
// whatever its mask says.
func cellsMatrix(c genome, jobs, nodes int) Matrix {
	m := NewMatrix(jobs, nodes)
	for j, row := range m {
		for n := range row {
			row[n] = int(c.cells[j*nodes+n])
		}
	}
	return m
}

// checkMasks fails unless every member's mask is set exactly where its
// cells are positive and tallies like the dense Matrix.tally, occupant
// lists in ascending row order included.
func checkMasks(t *testing.T, g *GA, when string) {
	t.Helper()
	nodes := len(g.prob.Capacity)
	for i, c := range g.pop {
		for _, o := range g.gen[len(g.pop):] {
			if len(o.cells) > 0 && &o.cells[0] == &c.cells[0] {
				t.Fatalf("%s: member %d is also an offspring genome", when, i)
			}
		}
		m := cellsMatrix(c, g.prob.Jobs, nodes)
		if want := maskOf(m); !slices.Equal(c.mask, want) {
			t.Fatalf("%s: member %d mask %b, cells say %b", when, i, c.mask, want)
		}
		usage, span := make([]int, nodes), make([]int, g.prob.Jobs)
		m.tally(usage, span)
		g.occ.tally(c.cells, c.mask)
		if !slices.Equal(g.occ.usage, usage) || !slices.Equal(g.occ.span, span) {
			t.Fatalf("%s: member %d mask tally usage %v span %v, dense %v %v",
				when, i, g.occ.usage, g.occ.span, usage, span)
		}
		for n := 0; n < nodes; n++ {
			var rows []uint32
			for j, row := range m {
				if row[n] > 0 {
					rows = append(rows, uint32(j))
				}
			}
			if got := g.occ.occupants(n); !slices.Equal(got, rows) {
				t.Fatalf("%s: member %d node %d occupants %v, column scan %v", when, i, n, got, rows)
			}
		}
	}
}

// shapeNodes and shapeModes are the shapes the mask and repair tests run:
// widths on both sides of each word boundary, with interference avoidance
// off, on, and under DistBlocked and ExtraSpan.
var (
	shapeNodes = []int{1, 31, 32, 33, 64, 65, 130}
	shapeModes = []string{"capacity", "avoidance", "sub"}
)

// shapeProblem builds the problem of one shape, 9 jobs wide, and a seed
// matrix with two positive cells a row. The rng that drew the problem
// counts its draws on the returned source; the GA runs on it next.
func shapeProblem(nodes int, mode string) (Problem, Matrix, *rand.Rand, *detrand.Source) {
	src := detrand.NewSource(int64(60 + nodes))
	rng := rand.New(src)
	const jobs = 9
	prob := Problem{Capacity: make([]int, nodes), Jobs: jobs, Fitness: simpleFitness, InterferenceAvoidance: mode != "capacity"}
	for n := range prob.Capacity {
		prob.Capacity[n] = rng.Intn(5)
	}
	if mode == "sub" {
		prob.DistBlocked, prob.ExtraSpan = make([]bool, nodes), make([]int, jobs)
		for n := range prob.DistBlocked {
			prob.DistBlocked[n] = rng.Intn(3) == 0
		}
		for j := range prob.ExtraSpan {
			prob.ExtraSpan[j] = rng.Intn(2)
		}
	}
	seed := NewMatrix(jobs, nodes)
	for j, row := range seed {
		row[(j*7)%nodes] = 3
		row[(j*11+5)%nodes] = 2
	}
	return prob, seed, rng, src
}

// TestGAMasksMatchCells holds every member's positive-cell mask to its
// cells after New and after every Step, at every shape, scored inline and
// by scorers.
func TestGAMasksMatchCells(t *testing.T) {
	withScorers(t)
	for _, nodes := range shapeNodes {
		for _, mode := range shapeModes {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("nodes=%d/%s/workers=%d", nodes, mode, workers), func(t *testing.T) {
					testutil.SetProcs(t, workers)
					prob, seed, rng, _ := shapeProblem(nodes, mode)
					g := New(prob, Options{Population: 12}, rng, []Matrix{seed})
					checkMasks(t, g, "New")
					for gen := 0; gen < 8; gen++ {
						g.Step()
						checkMasks(t, g, fmt.Sprintf("gen %d", gen))
					}
				})
			}
		}
	}
}

// TestRepairOfMemberIsANoOp pins the premises Step skips work on: every
// member is feasible, repairing a feasible matrix draws nothing and writes
// nothing, and lowering cells of a member keeps it feasible (so a mutation
// offspring whose changed cells all fell needs no repair). It runs at every
// shape, after New and after every Step, on the GA's own counting rng.
func TestRepairOfMemberIsANoOp(t *testing.T) {
	for _, nodes := range shapeNodes {
		for _, mode := range shapeModes {
			t.Run(fmt.Sprintf("nodes=%d/%s", nodes, mode), func(t *testing.T) {
				prob, seed, rng, src := shapeProblem(nodes, mode)
				lower := rand.New(rand.NewSource(int64(nodes)))
				g := New(prob, Options{Population: 12}, rng, []Matrix{seed})
				dense := func(c genome) Matrix { return cellsMatrix(c, prob.Jobs, nodes) }
				noOp := func(when string, i int, c genome) {
					t.Helper()
					cp := cloneGenome(c)
					draws := src.State().Draws
					g.repair(cp)
					if d := src.State().Draws - draws; d != 0 || !slices.Equal(cp.cells, c.cells) || !slices.Equal(cp.mask, c.mask) {
						t.Fatalf("%s: repairing member %d drew %d and changed %v into %v", when, i, d, dense(c), dense(cp))
					}
				}
				for gen := 0; gen <= 8; gen++ {
					when := fmt.Sprintf("after %d steps", gen)
					for i, c := range g.pop {
						noOp(when, i, c)
						low := cloneGenome(c)
						for k, v := range low.cells {
							if v > 0 && lower.Intn(2) == 0 {
								low.cells[k] = uint16(lower.Intn(int(v)))
								mark(low.mask, k, int(low.cells[k]))
							}
						}
						if !FeasibleSub(dense(low), prob.Capacity, prob.InterferenceAvoidance, prob.DistBlocked, prob.ExtraSpan) {
							t.Fatalf("%s: member %d lowered to %v is infeasible", when, i, dense(low))
						}
						noOp(when+", lowered", i, low)
					}
					g.Step()
				}
			})
		}
	}
}

// TestSurvivorSelectionMatchesStableSort holds survivor selection to its
// definition: the first Population of a stable sort of all 3 × Population
// members by score, best first, in that order, over generations (only the
// first finds the population unsorted). Scores are drawn from a handful of
// values, ±Inf and NaN among them, so most compare equal. Every genome is
// kept: the evicted ones move to the offspring slots.
func TestSurvivorSelectionMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	values := []float64{math.Inf(-1), -1, 0, 0.5, 1, 2, math.Inf(1), math.NaN()}
	for trial := 0; trial < 400; trial++ {
		size := 1 + rng.Intn(12)
		g := &GA{gen: make([]genome, 3*size), scores: make([]float64, 3*size), idx: make([]int, 2*size)}
		g.pop = g.gen[:size]
		id := 0
		for i := range g.gen[:size] {
			g.gen[i], g.scores[i], id = genome{cells: []uint16{uint16(id)}}, values[rng.Intn(len(values))], id+1
		}
		for gen := 0; gen < 4; gen++ {
			for i := size; i < 3*size; i++ {
				g.gen[i], g.scores[i], id = genome{cells: []uint16{uint16(id)}}, values[rng.Intn(len(values))], id+1
			}
			order := make([]int, 3*size)
			for i := range order {
				order[i] = i
			}
			slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(g.scores[b], g.scores[a]) })
			want, wantScores, all := make([]int, size), make([]uint64, size), make([]int, 3*size)
			for k, i := range order[:size] {
				want[k], wantScores[k] = int(g.gen[i].cells[0]), math.Float64bits(g.scores[i])
			}
			for i, c := range g.gen {
				all[i] = int(c.cells[0])
			}
			g.selectSurvivors()
			got, gotScores, after := make([]int, size), make([]uint64, size), make([]int, 3*size)
			for k, c := range g.pop {
				got[k], gotScores[k] = int(c.cells[0]), math.Float64bits(g.scores[k])
			}
			for i, c := range g.gen {
				after[i] = int(c.cells[0])
			}
			if !slices.Equal(got, want) || !slices.Equal(gotScores, wantScores) {
				t.Fatalf("trial %d gen %d: survivors %v scored %v, stable sort keeps %v", trial, gen, got, g.scores[:size], want)
			}
			slices.Sort(all)
			slices.Sort(after)
			if !slices.Equal(after, all) {
				t.Fatalf("trial %d gen %d: genomes %v after selection, %v before", trial, gen, after, all)
			}
		}
	}
}

// simpleFitness rewards total allocated GPUs with diminishing returns and
// a mild spread penalty — shaped like the real speedup objective.
func simpleFitness(m Matrix) float64 {
	f := 0.0
	for j := range m {
		k := float64(rowGPUs(m[j]))
		n := float64(rowNodes(m[j]))
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
		total += rowGPUs(best[j])
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

// TestGASeedsWithABadRowIgnored: New ignores a seed when any row, not only
// the first, has the wrong width, or when a cell does not fit a genome. A
// short row used to be copied truncated and a long one cut; in a genome's
// row-major cells a long row would spill into the next job's. At
// Population 1 the slot goes to the first valid seed, so the GA holds the
// zero matrix when the seed is ignored and the seed itself otherwise.
func TestGASeedsWithABadRowIgnored(t *testing.T) {
	prob := Problem{Capacity: []int{4, 4}, Jobs: 3, Fitness: simpleFitness}
	good := Matrix{{1, 0}, {0, 1}, {1, 0}}
	g := New(prob, Options{Population: 1}, rand.New(rand.NewSource(15)), []Matrix{good})
	if got := g.Population()[0]; !got.Equal(good) {
		t.Fatalf("a valid seed is not kept: %v", got)
	}
	for _, c := range []struct {
		name string
		seed Matrix
	}{
		{"short third row", Matrix{{1, 0}, {0, 1}, {1}}},
		{"long third row", Matrix{{1, 0}, {0, 1}, {1, 0, 2}}},
		{"negative cell", Matrix{{1, 0}, {0, -1}, {1, 0}}},
		{"cell above MaxCapacity", Matrix{{1, 0}, {0, MaxCapacity + 1}, {1, 0}}},
	} {
		g := New(prob, Options{Population: 1}, rand.New(rand.NewSource(15)), []Matrix{c.seed})
		if got := g.Population()[0]; !got.Equal(NewMatrix(3, 2)) {
			t.Errorf("%s: seed %v taken as %v, want it ignored", c.name, c.seed, got)
		}
	}
}

// TestNewRefusesCapacityOverMaxCapacity: a node a genome cell cannot hold
// is a programming error, named in the panic.
func TestNewRefusesCapacityOverMaxCapacity(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "MaxCapacity") {
			t.Errorf("New panicked with %q, want a message naming MaxCapacity", msg)
		}
	}()
	New(Problem{Capacity: []int{4, MaxCapacity + 1}, Jobs: 2, Fitness: simpleFitness}, Options{Population: 2}, rand.New(rand.NewSource(1)), nil)
}

// hashScore is a fitness that tells matrices apart: a hash of every cell,
// in row-major order, exact in a float64.
func hashScore(m Matrix) float64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range m {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	return float64(h.Sum64() >> 11)
}

// TestFitnessSeesTheMemberItScores holds the scorers' scratch matrices to
// the genomes they stand for: under a fitness that hashes every cell, each
// genome the GA holds after a Step (the population and the evicted ones,
// each with the score it was given) must carry the hash of its own cells
// as its score, inline and on a scorer. The test also requires that some
// member was scored right after one with more positive cells on the same
// scratch, so a load that left the previous member's cells behind is seen.
func TestFitnessSeesTheMemberItScores(t *testing.T) {
	withScorers(t)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			positive := map[*int]int{} // per scratch, by its first cell: the last load's positive cells
			shrank := 0
			fitness := func(m Matrix) float64 {
				n := 0
				for _, row := range m {
					n += rowNodes(row)
				}
				mu.Lock()
				if prev, ok := positive[&m[0][0]]; ok && n < prev {
					shrank++
				}
				positive[&m[0][0]] = n
				mu.Unlock()
				return hashScore(m)
			}
			prob, seed, rng, _ := shapeProblem(33, "avoidance")
			prob.Fitness = fitness
			testutil.SetProcs(t, workers)
			g := New(prob, Options{Population: 12}, rng, []Matrix{seed})
			check := func(when string, genomes int) {
				t.Helper()
				for i, c := range g.gen[:genomes] {
					m := cellsMatrix(c, prob.Jobs, len(prob.Capacity))
					if got, want := math.Float64bits(g.scores[i]), math.Float64bits(hashScore(m)); got != want {
						t.Fatalf("%s: genome %d scored %x, its cells hash to %x:\n%v", when, i, got, want, m)
					}
				}
			}
			check("New", len(g.pop))
			for gen := 0; gen < 10; gen++ {
				g.Step()
				check(fmt.Sprintf("gen %d", gen), len(g.gen))
			}
			if shrank == 0 {
				t.Error("no member was scored right after one with more positive cells on the same scratch")
			}
		})
	}
}

// TestBestAndPopulationAreTheCallers: the matrices Best and Population
// return are built for the caller. Writing every cell of one changes
// neither another returned matrix nor the GA: it steps on as a twin from
// the same seed that nobody wrote into.
func TestBestAndPopulationAreTheCallers(t *testing.T) {
	newGA := func() *GA {
		prob, seed, rng, _ := shapeProblem(33, "avoidance")
		return New(prob, Options{Population: 12}, rng, []Matrix{seed})
	}
	g, twin := newGA(), newGA()
	for gen := 0; gen < 4; gen++ {
		pop, want := g.Population(), twin.Population()
		best, _ := g.Best()
		wantBest, _ := twin.Best()
		for _, m := range []Matrix{pop[0], best} {
			for _, row := range m {
				for n := range row {
					row[n] = 7
				}
			}
		}
		for i := 1; i < len(pop); i++ {
			if !pop[i].Equal(want[i]) {
				t.Fatalf("gen %d: writing member 0 and the best changed member %d to %v", gen, i, pop[i])
			}
		}
		if again, _ := g.Best(); !again.Equal(wantBest) {
			t.Fatalf("gen %d: writing returned matrices changed the best to %v", gen, again)
		}
		g.Step()
		twin.Step()
		for i, m := range g.Population() {
			if !m.Equal(twin.Population()[i]) || math.Float64bits(g.scores[i]) != math.Float64bits(twin.scores[i]) {
				t.Fatalf("gen %d: member %d is %v after a Step, its twin %v", gen, i, m, twin.Population()[i])
			}
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
	// Nor the work: an offspring that copies a member takes its score on
	// the caller's goroutine, and no scorer calls Fitness on its slot, so
	// every worker count makes as many calls as the serial run, fewer than
	// the members Stats counts. The worker count is GOMAXPROCS, which run
	// sets before New reads it.
	withScorers(t)
	// The fitness yields on a seeded subset of its calls, so that scorers
	// finish out of order and the caller often catches up with them.
	yields := make([]bool, 61)
	for i, r := 0, rand.New(rand.NewSource(78)); i < len(yields); i++ {
		yields[i] = r.Intn(3) == 0
	}
	var calls atomic.Int64
	fitness := func(m Matrix) float64 {
		if yields[calls.Add(1)%int64(len(yields))] {
			runtime.Gosched()
		}
		return simpleFitness(m)
	}
	run := func(workers int) (*GA, int64) {
		rng := rand.New(rand.NewSource(77))
		prob := Problem{
			Capacity:              []int{4, 4, 4, 4},
			Jobs:                  6,
			Fitness:               fitness,
			InterferenceAvoidance: true,
		}
		start := calls.Load()
		testutil.SetProcs(t, workers)
		g := New(prob, Options{Population: 30}, rng, nil)
		g.Run(25)
		return g, calls.Load() - start
	}
	want, wantCalls := run(1)
	if n := want.Stats().FitnessCalls; wantCalls >= n {
		t.Errorf("GOMAXPROCS 1 called Fitness %d times for %d members: no copy kept its parent's score", wantCalls, n)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		got, gotCalls := run(workers)
		if gotCalls != wantCalls {
			t.Errorf("GOMAXPROCS %d called Fitness %d times, GOMAXPROCS 1 %d", workers, gotCalls, wantCalls)
		}
		for i := range want.pop {
			if !slices.Equal(got.pop[i].cells, want.pop[i].cells) {
				t.Fatalf("GOMAXPROCS 1 vs %d member %d differs:\n%v\n%v", workers, i, want.Population()[i], got.Population()[i])
			}
			//pollux:floateq-ok bit-identical determinism gate: the worker count must not change the result at all
			if got.scores[i] != want.scores[i] {
				t.Fatalf("GOMAXPROCS 1 vs %d member %d fitness differs: %v vs %v", workers, i, want.scores[i], got.scores[i])
			}
		}
		if got.Stats() != want.Stats() {
			t.Errorf("GOMAXPROCS 1 vs %d stats differ: %+v vs %+v", workers, want.Stats(), got.Stats())
		}
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
// (rescan-until-stable, rowNodes recomputed fresh at every node visit),
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
				if m[j][n] > 0 && rowNodes(m[j]) > 1 {
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
		if rowNodes(before[j]) > 0 && rowNodes(after[j]) == 0 {
			t.Fatalf("job %d over-evicted to zero allocation:\nbefore %v\nafter  %v",
				j, before[j], after[j])
		}
		if rowNodes(before[j]) <= 1 {
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
				if m[j][n] > 0 && rowNodes(m[j]) > 1 {
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
// populations, scores, and rng draw order across generations. It repairs
// and scores every offspring and stable-sorts all of them with the
// population: it is the reference the skipped repairs, the copied scores
// and the merge-based selection of Step are held to.
func stepOracle(g *GA) {
	offspring := make([]genome, 0, 2*len(g.pop))
	jobs, nodes := g.prob.Jobs, len(g.prob.Capacity)
	for _, m := range g.pop {
		c := cloneGenome(m)
		g.mutate(c)
		g.repair(c)
		offspring = append(offspring, c)
	}
	for i := 0; i < len(g.pop); i++ {
		a := g.pop[g.tournament()]
		b := g.pop[g.tournament()]
		c := genome{make([]uint16, jobs*nodes), make([]uint32, maskWords(jobs, nodes))}
		g.crossoverInto(c, a, b)
		g.repair(c)
		offspring = append(offspring, c)
	}
	offScores := make([]float64, len(offspring))
	for i, c := range offspring {
		offScores[i] = g.prob.Fitness(cellsMatrix(c, jobs, nodes))
	}
	type scored struct {
		m genome
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
	g.pop = make([]genome, 0, g.opts.Population)
	g.scores = make([]float64, 0, g.opts.Population)
	for i := 0; i < g.opts.Population && i < len(all); i++ {
		g.pop = append(g.pop, all[i].m)
		g.scores = append(g.scores, all[i].f)
	}
}

func TestStepBufferReuseBitIdentical(t *testing.T) {
	// Every fixed-seed sim baseline depends on the GA trace staying
	// byte-stable, so the allocation-reuse Step must match the historical
	// clone-per-offspring implementation generation by generation, with
	// rows over two mask words wide and with scorers as well.
	withScorers(t)
	wide := make([]int, 70)
	for n := range wide {
		wide[n] = 1 + n%4
	}
	for _, leg := range []struct {
		capacity []int
		jobs     int
		workers  int
		blocked  []bool // with extra, a sub-problem
		extra    []int
	}{
		{[]int{4, 4, 4, 2}, 7, 1, nil, nil},
		{[]int{4, 4, 4, 2}, 7, 4, nil, nil},
		{[]int{4, 4, 4, 2}, 7, 1, []bool{false, true, false, false}, []int{0, 1, 0, 0, 0, 1, 0}},
		{[]int{3}, 5, 1, nil, nil},
		{wide, 20, 1, nil, nil},
		{wide, 20, 4, nil, nil},
	} {
		newGA := func() *GA {
			rng := rand.New(rand.NewSource(123))
			prob := Problem{
				Capacity:              leg.capacity,
				Jobs:                  leg.jobs,
				Fitness:               simpleFitness,
				InterferenceAvoidance: true,
				DistBlocked:           leg.blocked,
				ExtraSpan:             leg.extra,
			}
			return New(prob, Options{Population: 24}, rng, []Matrix{NewMatrix(leg.jobs, len(leg.capacity))})
		}
		testutil.SetProcs(t, leg.workers)
		got, want := newGA(), newGA()
		for gen := 0; gen < 15; gen++ {
			got.Step()
			stepOracle(want)
			if len(got.pop) != len(want.pop) {
				t.Fatalf("%d nodes, workers %d, gen %d: population size %d, want %d",
					len(leg.capacity), leg.workers, gen, len(got.pop), len(want.pop))
			}
			for i := range got.pop {
				if !slices.Equal(got.pop[i].cells, want.pop[i].cells) || !slices.Equal(got.pop[i].mask, want.pop[i].mask) {
					t.Fatalf("%d nodes, workers %d, gen %d member %d diverges from clone-path oracle:\ngot  %v\nwant %v",
						len(leg.capacity), leg.workers, gen, i, got.Population()[i], want.Population()[i])
				}
				//pollux:floateq-ok bit-identity gate against the historical implementation
				if got.scores[i] != want.scores[i] {
					t.Fatalf("%d nodes, workers %d, gen %d member %d score %v, want %v",
						len(leg.capacity), leg.workers, gen, i, got.scores[i], want.scores[i])
				}
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
		g := New(prob, Options{Population: 1}, rand.New(rand.NewSource(55)), nil)
		denseRng := rand.New(rand.NewSource(55))
		operators := []struct {
			name   string
			mutate func(Matrix)
		}{
			{"sparse", func(m Matrix) { mutateSentinel(g, m) }},
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

// mutateSentinel runs g.mutate on m, whose cells are -1 (a sentinel no
// draw produces) or in [0, MaxCapacity): a genome keeps -1 as
// MaxCapacity, which no capacity under it can draw either.
func mutateSentinel(g *GA, m Matrix) {
	nodes := len(m[0])
	c := genome{make([]uint16, len(m)*nodes), make([]uint32, maskWords(len(m), nodes))}
	for j, row := range m {
		for n, v := range row {
			c.cells[j*nodes+n] = uint16(v) // -1 wraps to MaxCapacity
		}
	}
	g.mutate(c)
	for j, row := range m {
		for n := range row {
			if row[n] = int(c.cells[j*nodes+n]); row[n] == MaxCapacity {
				row[n] = -1
			}
		}
	}
}

func TestSparseMutationSingleNode(t *testing.T) {
	// p = 1/N = 1 at a single node: every cell must mutate, as in the
	// dense scan.
	rng := rand.New(rand.NewSource(56))
	prob := Problem{Capacity: []int{50}, Jobs: 5, Fitness: simpleFitness}
	g := New(prob, Options{Population: 1}, rng, nil)
	m := NewMatrix(5, 1)
	for j := range m {
		m[j][0] = -1
	}
	mutateSentinel(g, m)
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
	g := New(prob, Options{Population: 6}, rand.New(rand.NewSource(59)), nil)
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
