// Package ga implements the genetic algorithm PolluxSched uses to optimize
// cluster-wide resource allocations (Sec. 4.2.1 and Fig. 5 of the paper):
// mutation of allocation-matrix elements, tournament-selection crossover
// that mixes rows (job allocations) between parents, a repair step that
// restores per-node GPU capacity and the interference-avoidance
// constraint, and elitist survivor selection with the population carried
// over between scheduling intervals.
//
// The GA is generic over the fitness function; PolluxSched supplies
// Eqn. 14 (the weighted mean of per-job speedups with restart penalties).
package ga

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/par"
)

// Matrix is an allocation matrix A: Matrix[j][n] is the number of GPUs on
// node n allocated to job j.
type Matrix [][]int

// NewMatrix allocates a zero matrix for jobs × nodes.
func NewMatrix(jobs, nodes int) Matrix {
	m := make(Matrix, jobs)
	backing := make([]int, jobs*nodes)
	for j := range m {
		m[j], backing = backing[:nodes:nodes], backing[nodes:]
	}
	return m
}

// CopyFrom overwrites m's entries with o's. The shapes must match; it is
// the allocation-free counterpart of Clone for reused buffers.
func (m Matrix) CopyFrom(o Matrix) {
	for j := range m {
		copy(m[j], o[j])
	}
}

// Clone deep-copies the matrix.
func (m Matrix) Clone() Matrix {
	if len(m) == 0 {
		return Matrix{}
	}
	c := NewMatrix(len(m), len(m[0]))
	c.CopyFrom(m)
	return c
}

// JobGPUs returns the total GPUs allocated to job j.
func (m Matrix) JobGPUs(j int) int {
	sum := 0
	for _, g := range m[j] {
		sum += g
	}
	return sum
}

// JobNodes returns the number of nodes on which job j has at least one GPU.
func (m Matrix) JobNodes(j int) int {
	n := 0
	for _, g := range m[j] {
		if g > 0 {
			n++
		}
	}
	return n
}

// tally adds every row into usage (per-node GPU totals, one entry per
// capacity node) and sets span[j] to the number of nodes row j holds GPUs
// on: the one whole-matrix pass a feasibility check needs, row by row.
func (m Matrix) tally(usage, span []int) {
	for j, row := range m {
		span[j] = 0
		for n, g := range row[:len(usage)] {
			usage[n] += g
			if g > 0 {
				span[j]++
			}
		}
	}
}

// occupancy is what repair reads instead of the matrix's columns: the tally
// of one row-major pass plus, per node, the rows holding GPUs there in
// ascending order. Node n's list is rows[n*jobs:][:count[n]], a fixed
// stride, so the next pass resets every list by clearing the counts.
// Repair only lowers cells, so a list taken before it stays, in the same
// order, a superset of the rows still on the node: a reader that filters by
// the live cell sees exactly what a scan of the column would.
type occupancy struct {
	usage, count, span []int
	rows, cand         []int32 // cand: the candidates of the node in hand
}

// newOccupancy cuts the scratch for a jobs × nodes problem from two arrays,
// so that a GA costs two allocations whatever its shape.
func newOccupancy(jobs, nodes int) occupancy {
	ints, rows := make([]int, 2*nodes+jobs), make([]int32, jobs*nodes+jobs)
	return occupancy{
		usage: ints[:nodes], count: ints[nodes : 2*nodes], span: ints[2*nodes:],
		rows: rows[:jobs*nodes], cand: rows[jobs*nodes:],
	}
}

// occupants returns node n's list as of the last tally.
func (o *occupancy) occupants(n int) []int32 {
	return o.rows[n*len(o.span):][:o.count[n]]
}

// tally is Matrix.tally into o.usage and o.span, recording the occupants.
func (o *occupancy) tally(m Matrix) {
	usage, count, jobs := o.usage, o.count[:len(o.usage)], len(o.span)
	clear(usage)
	clear(count)
	for j, row := range m {
		span := 0
		for n, g := range row[:len(usage)] {
			usage[n] += g
			if g > 0 {
				span++
				o.rows[n*jobs+count[n]] = int32(j)
				count[n]++
			}
		}
		o.span[j] = span
	}
}

// Equal reports whether two matrices have identical entries.
func (m Matrix) Equal(o Matrix) bool {
	return slices.EqualFunc(m, o, slices.Equal[[]int])
}

// SameRow reports whether a and b are one slice: the same cells in memory,
// not merely equal ones. A row that has crossed an API is never written
// again (see docs/architecture.md, "Pass budget and ownership"), so two
// holders of one slice know the row is unchanged without reading a cell.
func SameRow(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// EqualRows reports whether two rows hold equal cells, by identity when
// they are one slice and cell by cell otherwise.
func EqualRows(a, b []int) bool {
	return SameRow(a, b) || slices.Equal(a, b)
}

// Problem describes one cluster-wide allocation optimization.
type Problem struct {
	// Capacity[n] is the number of GPUs on node n.
	Capacity []int
	// Jobs is the number of rows in each allocation matrix.
	Jobs int
	// Fitness scores an allocation matrix; higher is better. It is
	// called only on repaired (feasible) matrices. It must be a pure
	// function of the matrix and, when Options.Workers > 1, safe to call
	// from multiple goroutines concurrently.
	Fitness func(Matrix) float64
	// InterferenceAvoidance enforces that at most one distributed job
	// (a job spanning more than one node) occupies each node (Sec. 4.2.1).
	InterferenceAvoidance bool
	// DistBlocked, when non-nil, marks nodes that must not host any
	// distributed job at all. Hierarchical sub-problems set it for nodes
	// that already host a distributed job outside the sub-problem: the
	// Sec. 4.2.1 constraint then forbids a second one there. Ignored
	// unless InterferenceAvoidance is set.
	DistBlocked []bool
	// ExtraSpan, when non-nil, gives per job the number of nodes it
	// occupies outside this problem's columns; the interference
	// constraint sees span = JobNodes + ExtraSpan, so a job with GPUs in
	// another rack counts as distributed even when it sits on one local
	// node. Ignored unless InterferenceAvoidance is set.
	ExtraSpan []int
}

// Options tunes the GA. The paper's defaults are population 100 and 100
// generations per 60 s scheduling interval.
type Options struct {
	Population int // default 100
	// Workers bounds the goroutines evaluating Fitness concurrently;
	// default GOMAXPROCS. Only fitness evaluation fans out — mutation,
	// crossover, and repair stay on the caller's goroutine so the single
	// *rand.Rand is never shared — and every offspring is scored into a
	// fixed slot, so results are bit-identical to Workers: 1.
	Workers int
}

func (o *Options) defaults() {
	if o.Population <= 0 {
		o.Population = 100
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// GA is the evolving population for one Problem. A GA is not safe for
// concurrent use, but it internally fans fitness evaluation out over
// Options.Workers goroutines (see Options); all stochastic operators run
// on the caller's goroutine.
type GA struct {
	prob Problem
	opts Options
	rng  *rand.Rand

	pop    []Matrix
	scores []float64

	// Reused generation buffers (see Step): matrices cycle between the
	// population, the offspring slice, and the free pool instead of being
	// reallocated every generation — offspring churn was the dominant
	// allocation source in scheduling-round profiles.
	free       []Matrix
	off        []Matrix
	offScores  []float64
	idx        []int
	next       []Matrix
	nextScores []float64

	// Repair scratch (see repair), so repairing an offspring allocates
	// nothing.
	occ occupancy
	// lnGap is ln(1 − 1/N), the scale of the gaps between mutated cells
	// (not finite, and not read, at N ≤ 1).
	lnGap float64

	stats Stats
}

// Stats counts fitness work done since the GA was created, including the
// initial population evaluation. CellsScored weights each call by the
// matrix area it scored (jobs × nodes): sub-problem evaluations in the
// hierarchical scheduler are cheap in proportion to their area, so cells —
// not raw calls — is the unit per-round speedups are measured in.
type Stats struct {
	FitnessCalls int64
	CellsScored  int64
}

// Stats returns the cumulative fitness-work counters.
func (g *GA) Stats() Stats { return g.stats }

// New creates a GA for the problem, seeded from the given matrices (the
// population carried over from the previous scheduling interval; may be
// nil or partial). Seeds with the wrong shape are ignored; the rest of
// the population is filled with repaired random matrices and the zero
// matrix (all jobs paused), which is always feasible. One slot is
// reserved for the zero matrix even when the seeds alone would fill the
// population, so "pause everything" is always representable — except at
// Population 1, where the only slot goes to the first valid seed (a
// carried-over current allocation beats an all-paused search there).
func New(prob Problem, opts Options, rng *rand.Rand, seeds []Matrix) *GA {
	opts.defaults()
	nodes := len(prob.Capacity)
	g := &GA{prob: prob, opts: opts, rng: rng, occ: newOccupancy(prob.Jobs, nodes), lnGap: math.Log(1 - 1/float64(nodes))}
	g.pop = make([]Matrix, 0, opts.Population)
	seedSlots := opts.Population - 1
	if opts.Population == 1 {
		seedSlots = 1
	}
	for _, s := range seeds {
		if len(g.pop) >= seedSlots {
			break
		}
		if len(s) != prob.Jobs || (prob.Jobs > 0 && len(s[0]) != nodes) {
			continue
		}
		c := s.Clone()
		g.repair(c)
		g.pop = append(g.pop, c)
	}
	if len(g.pop) < opts.Population {
		g.pop = append(g.pop, NewMatrix(prob.Jobs, nodes))
	}
	for len(g.pop) < opts.Population {
		m := NewMatrix(prob.Jobs, nodes)
		// Without nodes (a cluster that lost them all) every member is the
		// all-paused matrix of zero-width rows.
		for j := 0; j < prob.Jobs && nodes > 0; j++ {
			n := rng.Intn(nodes)
			if cap := prob.Capacity[n]; cap > 0 {
				m[j][n] = 1 + rng.Intn(cap)
			}
		}
		g.repair(m)
		g.pop = append(g.pop, m)
	}
	g.scores = make([]float64, len(g.pop))
	g.evalScores(g.pop, g.scores)
	return g
}

// evalScores fills out[i] = Fitness(ms[i]) for every matrix, fanning the
// calls out over at most Options.Workers goroutines. Each matrix is scored
// into its own slot and Fitness is required to be pure, so the result is
// independent of worker count and interleaving.
func (g *GA) evalScores(ms []Matrix, out []float64) {
	g.stats.FitnessCalls += int64(len(ms))
	g.stats.CellsScored += int64(len(ms)) * int64(g.prob.Jobs) * int64(len(g.prob.Capacity))
	if g.opts.Workers == 1 {
		// Inline, so a one-worker generation allocates no closure either.
		for i, m := range ms {
			out[i] = g.prob.Fitness(m)
		}
		return
	}
	par.For(g.opts.Workers, len(ms), func(i int) {
		out[i] = g.prob.Fitness(ms[i])
	})
}

// buf returns a matrix buffer of the problem's shape, reusing an evicted
// one when available.
func (g *GA) buf() Matrix {
	if n := len(g.free); n > 0 {
		m := g.free[n-1]
		g.free = g.free[:n-1]
		return m
	}
	return NewMatrix(g.prob.Jobs, len(g.prob.Capacity))
}

// Step runs one generation: mutate, crossover, repair, and survivor
// selection back down to the configured population size. Offspring
// buffers come from the free pool and evicted members return to it, so a
// steady-state generation allocates nothing; every reused buffer is fully
// overwritten (mutation copies the parent first, crossover copies every
// row), so the generation draws and decides as one that clones every
// offspring would (stepOracle in the tests).
func (g *GA) Step() {
	pop := g.pop
	g.off = g.off[:0]
	// Mutation: each current member yields one mutated offspring.
	for _, m := range pop {
		c := g.buf()
		c.CopyFrom(m)
		g.mutate(c)
		g.repair(c)
		g.off = append(g.off, c)
	}
	// Crossover: pair tournament winners to produce the same number of
	// offspring again.
	for i := 0; i < len(pop); i++ {
		a := pop[g.tournament()]
		b := pop[g.tournament()]
		c := g.buf()
		g.crossoverInto(c, a, b)
		g.repair(c)
		g.off = append(g.off, c)
	}

	// Survivor selection: keep the best Population among old + new. The
	// candidate order (population, then offspring) and the stable sort
	// break ties in favour of the incumbents, oldest first.
	if cap(g.offScores) < len(g.off) {
		g.offScores = make([]float64, len(g.off))
	}
	g.offScores = g.offScores[:len(g.off)]
	g.evalScores(g.off, g.offScores)

	total := len(pop) + len(g.off)
	g.idx = g.idx[:0]
	for i := 0; i < total; i++ {
		g.idx = append(g.idx, i)
	}
	score := func(i int) float64 {
		if i < len(pop) {
			return g.scores[i]
		}
		return g.offScores[i-len(pop)]
	}
	member := func(i int) Matrix {
		if i < len(pop) {
			return pop[i]
		}
		return g.off[i-len(pop)]
	}
	slices.SortStableFunc(g.idx, func(a, b int) int { return cmp.Compare(score(b), score(a)) })

	keep := min(g.opts.Population, total)
	g.next = g.next[:0]
	g.nextScores = g.nextScores[:0]
	for _, i := range g.idx[:keep] {
		g.next = append(g.next, member(i))
		g.nextScores = append(g.nextScores, score(i))
	}
	for _, i := range g.idx[keep:] {
		g.free = append(g.free, member(i))
	}
	g.pop, g.next = g.next, g.pop[:0]
	g.scores, g.nextScores = g.nextScores, g.scores[:0]
}

// Run executes the given number of generations and returns the best
// matrix found together with its fitness.
func (g *GA) Run(generations int) (Matrix, float64) {
	for i := 0; i < generations; i++ {
		g.Step()
	}
	return g.Best()
}

// Best returns the highest-fitness member of the current population. The
// matrix is borrowed: it is valid until the next Step call, which may
// recycle evicted members' storage; clone to keep it longer.
func (g *GA) Best() (Matrix, float64) {
	bi := 0
	for i := range g.scores {
		if g.scores[i] > g.scores[bi] {
			bi = i
		}
	}
	return g.pop[bi], g.scores[bi]
}

// Population returns the current population (borrowed; callers must clone
// before mutating or holding across a Step call — evicted members'
// storage is recycled into later offspring). PolluxSched clones it to
// bootstrap the next interval.
func (g *GA) Population() []Matrix {
	return g.pop
}

// mutate applies the paper's mutation: each element with probability 1/N
// (N = number of nodes) is set to a uniform random integer in [0, cap_n].
// It visits only the mutated cells, drawing the gaps between them from the
// geometric distribution one Bernoulli(1/N) coin per cell would produce
// (floor(ln U / ln(1-p)) with U uniform in (0,1]): O(jobs) expected draws
// per offspring where the coins cost jobs × nodes.
func (g *GA) mutate(m Matrix) {
	nodes := len(g.prob.Capacity)
	total := len(m) * nodes
	if total == 0 {
		return
	}
	if nodes == 1 {
		// p = 1: every cell mutates, no gaps to sample.
		for j := range m {
			m[j][0] = g.rng.Intn(g.prob.Capacity[0] + 1)
		}
		return
	}
	for i := 0; ; i++ {
		u := 1 - g.rng.Float64() // (0,1], so Log is finite
		i += int(math.Log(u) / g.lnGap)
		if i >= total {
			return
		}
		n := i % nodes
		m[i/nodes][n] = g.rng.Intn(g.prob.Capacity[n] + 1)
	}
}

// crossoverInto fills c by mixing rows of two parents uniformly at
// random; every row is overwritten, so c may be a recycled buffer.
func (g *GA) crossoverInto(c, a, b Matrix) {
	for j := range c {
		src := a
		if g.rng.Intn(2) == 1 {
			src = b
		}
		copy(c[j], src[j])
	}
}

// tournamentSize is how many members compete to become a parent.
const tournamentSize = 3

// tournament returns the index of the fittest among tournamentSize randomly
// chosen population members.
func (g *GA) tournament() int {
	best := g.rng.Intn(len(g.pop))
	for i := 1; i < tournamentSize; i++ {
		c := g.rng.Intn(len(g.pop))
		if g.scores[c] > g.scores[best] {
			best = c
		}
	}
	return best
}

// repair restores feasibility: per-node GPU capacity first, then (if
// enabled) the interference-avoidance constraint. One pass over the rows
// feeds both: capacity repair keeps the spans current as it empties cells.
func (g *GA) repair(m Matrix) {
	g.occ.tally(m)
	g.occ.repairCapacity(m, g.prob.Capacity, g.rng)
	if g.prob.InterferenceAvoidance {
		g.occ.repairInterference(m, g.rng, g.prob.DistBlocked, g.prob.ExtraSpan)
	}
}

// RepairCapacity decrements random positive elements within over-capacity
// columns until every node's allocation fits its GPU capacity, as in the
// paper's repair operation. The candidate set (jobs with GPUs on the
// node) is taken once per node and maintained in place as jobs hit
// zero, so repair is linear in jobs + excess rather than quadratic.
func RepairCapacity(m Matrix, capacity []int, rng *rand.Rand) {
	o := newOccupancy(len(m), len(capacity))
	o.tally(m)
	o.repairCapacity(m, capacity, rng)
}

// repairCapacity is RepairCapacity given m's tally. Repairing node n
// writes only column n, so the usage of later nodes stays valid and every
// occupant listed for n still holds GPUs there; span is kept current as
// cells reach zero.
func (o *occupancy) repairCapacity(m Matrix, capacity []int, rng *rand.Rand) {
	for n, c := range capacity {
		over := o.usage[n] - c
		if over <= 0 {
			continue
		}
		// A copy: shedding reorders it, and interference repair reads the
		// list in row order.
		cand := append(o.cand[:0], o.occupants(n)...)
		for ; over > 0; over-- {
			// Shed one GPU from a random job still on this node.
			i := rng.Intn(len(cand))
			j := cand[i]
			m[j][n]--
			if m[j][n] == 0 {
				cand[i] = cand[len(cand)-1]
				cand = cand[:len(cand)-1]
				o.span[j]--
			}
		}
	}
}

// RepairInterference removes distributed jobs (spanning > 1 node) from
// nodes shared with other distributed jobs, until each node hosts at most
// one distributed job (Sec. 4.2.1, interference avoidance), in a single
// pass over the nodes with per-job node counts maintained as it goes.
//
// A job whose span has dropped to one node no longer interferes and must
// never be evicted, so each node's candidate list is filtered from its
// occupants by the live cells and counts when the node is processed and an
// eviction updates the count in place; evictions only shrink spans, so one
// pass suffices (see "One-pass interference repair" in
// docs/architecture.md). The rng is drawn only where a node must choose
// whom to evict, in the order the rescan-until-stable oracle in the tests
// draws.
func RepairInterference(m Matrix, rng *rand.Rand) {
	RepairInterferenceSub(m, rng, nil, nil)
}

// RepairInterferenceSub is RepairInterference for a sub-problem embedded
// in a larger cluster (see Problem.DistBlocked and Problem.ExtraSpan):
// blocked[n] marks columns where a distributed job outside the
// sub-problem already resides — no distributed GPUs of the sub-problem's
// jobs may remain there — and extraSpan[j] counts the nodes job j
// occupies outside these columns, which add to its effective span.
// Either may be nil; with both nil this is exactly RepairInterference,
// rng draw sequence included.
func RepairInterferenceSub(m Matrix, rng *rand.Rand, blocked []bool, extraSpan []int) {
	if len(m) == 0 {
		return
	}
	o := newOccupancy(len(m), len(m[0]))
	o.tally(m)
	o.repairInterference(m, rng, blocked, extraSpan)
}

// repairInterference is RepairInterferenceSub given m's tally, whose spans
// it widens by extraSpan.
func (o *occupancy) repairInterference(m Matrix, rng *rand.Rand, blocked []bool, extraSpan []int) {
	span := o.span
	if extraSpan != nil {
		for j := range span {
			span[j] += extraSpan[j]
		}
	}
	for n, c := range o.count {
		occupants := o.occupants(n)
		if blocked != nil && blocked[n] {
			// The outside distributed job keeps the node; every
			// distributed sub-problem job leaves it. There is no choice
			// to randomize (all must go), so eviction runs in row order
			// and the rng is untouched. Evicting j changes only j's own
			// span, so one pass with live span checks suffices.
			for _, j := range occupants {
				if m[j][n] > 0 && span[j] > 1 {
					m[j][n] = 0
					span[j]--
				}
			}
			continue
		}
		if c < 2 {
			continue // nobody to share the node with
		}
		dist := o.cand[:0]
		for _, j := range occupants {
			if m[j][n] > 0 && span[j] > 1 {
				dist = append(dist, j)
			}
		}
		for len(dist) > 1 {
			// Evict a random distributed job from this node, keeping the
			// others. Everything still listed spans > 1 node right now:
			// the list was filtered by the live counts and an eviction
			// shrinks only the evicted job's own span.
			i := rng.Intn(len(dist))
			j := dist[i]
			m[j][n] = 0
			span[j]--
			dist = append(dist[:i], dist[i+1:]...)
		}
	}
}

// Feasible reports whether m satisfies node capacities and, optionally,
// the interference-avoidance constraint. It is used by tests and by
// defensive checks in the scheduler.
func Feasible(m Matrix, capacity []int, avoidance bool) bool {
	return FeasibleSub(m, capacity, avoidance, nil, nil)
}

// FeasibleSub is Feasible under the sub-problem constraints of
// RepairInterferenceSub: no distributed GPUs on blocked nodes, and spans
// widened by extraSpan. Either may be nil.
func FeasibleSub(m Matrix, capacity []int, avoidance bool, blocked []bool, extraSpan []int) bool {
	usage, span := make([]int, len(capacity)), make([]int, len(m))
	m.tally(usage, span)
	for n, c := range capacity {
		if usage[n] > c {
			return false
		}
	}
	if !avoidance {
		return true
	}
	// Only distributed rows are walked again. hosts marks the nodes where a
	// distributed job sits: the blocked ones, then each one found.
	hosts := make([]bool, len(capacity))
	copy(hosts, blocked)
	for j, row := range m {
		if extraSpan != nil {
			span[j] += extraSpan[j]
		}
		if span[j] <= 1 {
			continue
		}
		for n, g := range row[:len(capacity)] {
			if g > 0 {
				if hosts[n] {
					return false
				}
				hosts[n] = true
			}
		}
	}
	return true
}
