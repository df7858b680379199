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
	"fmt"
	"math"
	mathbits "math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// Clone deep-copies the matrix.
func (m Matrix) Clone() Matrix {
	if len(m) == 0 {
		return Matrix{}
	}
	c := NewMatrix(len(m), len(m[0]))
	for j := range c {
		copy(c[j], m[j])
	}
	return c
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

// MaxCapacity is the most GPUs a node of a Problem may have: a genome
// keeps each cell in a uint16.
const MaxCapacity = math.MaxUint16

// wordBits is the number of cells one mask word covers.
const wordBits = 32

// A genome is an allocation matrix as the GA keeps it: its cells as uint16
// (a cell holds at most MaxCapacity), row-major (cell j*nodes+n is row j,
// node n), with the mask of its positive cells: bit i%wordBits of
// mask[i/wordBits] is set exactly when cell i is positive. Rows are packed
// across word boundaries, so a 16-node row costs half a word. Every
// operator that writes a cell keeps the bit, so the occupancy tally visits
// the one or two nodes a row holds instead of every cell of it, and a dense
// Matrix is built from the set bits only where a caller reads one (see
// scratch and GA.Population).
type genome struct {
	cells []uint16
	mask  []uint32
}

// maskWords is the number of mask words a jobs × nodes matrix takes.
func maskWords(jobs, nodes int) int { return (jobs*nodes + wordBits - 1) / wordBits }

// mark records whether cell i of a genome, in row-major order, is
// positive.
func mark(mask []uint32, i, v int) {
	w, bit := &mask[i/wordBits], uint32(1)<<(i%wordBits)
	if v > 0 {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// copyBits sets bits [lo, hi) of dst to those of src.
func copyBits(dst, src []uint32, lo, hi int) {
	for lo < hi {
		w, b := lo/wordBits, lo%wordBits
		n := min(wordBits-b, hi-lo)
		keep := (uint32(1)<<n - 1) << b // n == wordBits: all ones
		dst[w] = dst[w]&^keep | src[w]&keep
		lo += n
	}
}

// load sets c to the first nodes columns of m, which has c's rows, and
// reports whether every one of those cells fits a genome (0 ≤ v ≤
// MaxCapacity); a cell that does not loads as zero.
func (c genome) load(m Matrix, nodes int) bool {
	clear(c.mask)
	ok := true
	for j, row := range m {
		cells := c.cells[j*nodes:][:nodes]
		for n, v := range row[:nodes] {
			cells[n] = 0
			if v < 0 || v > MaxCapacity {
				ok = false
			} else if v > 0 {
				cells[n] = uint16(v)
				mark(c.mask, j*nodes+n, v)
			}
		}
	}
	return ok
}

// spread writes c's positive cells into flat, the row-major cells of a
// dense matrix of c's shape, and leaves the others as they are.
func (c genome) spread(flat []int) {
	for w, bits := range c.mask {
		for ; bits != 0; bits &= bits - 1 {
			i := w*wordBits + mathbits.TrailingZeros32(bits)
			flat[i] = int(c.cells[i])
		}
	}
}

// newMatrices returns count zero jobs × nodes matrices cut from one array
// of cells and one of rows, together with the cells, row-major and matrix
// after matrix. No row can grow into another.
func newMatrices(count, jobs, nodes int) ([]Matrix, []int) {
	flat, rows, ms := make([]int, count*jobs*nodes), make([][]int, count*jobs), make([]Matrix, count)
	for k := range ms {
		ms[k] = rows[k*jobs:][:jobs:jobs]
		for j := range ms[k] {
			i := (k*jobs + j) * nodes
			ms[k][j] = flat[i : i+nodes : i+nodes]
		}
	}
	return ms, flat
}

// scratch is the dense Matrix a scorer hands Fitness: load writes a
// genome's cells into it over what the previous load wrote. set is the
// mask of the cells the last load made positive, so a load writes only
// the cells positive before or after it and skips every mask word that is
// zero on both sides.
type scratch struct {
	m    Matrix
	flat []int // m's cells, row-major
	set  []uint32
}

func newScratch(jobs, nodes int) scratch {
	ms, flat := newMatrices(1, jobs, nodes)
	return scratch{m: ms[0], flat: flat, set: make([]uint32, maskWords(jobs, nodes))}
}

// load makes the scratch equal c and returns its matrix.
func (s *scratch) load(c genome) Matrix {
	for w, now := range c.mask {
		was := s.set[w]
		if was|now == 0 {
			continue
		}
		base := w * wordBits
		for bits := was &^ now; bits != 0; bits &= bits - 1 {
			s.flat[base+mathbits.TrailingZeros32(bits)] = 0
		}
		for bits := now; bits != 0; bits &= bits - 1 {
			i := base + mathbits.TrailingZeros32(bits)
			s.flat[i] = int(c.cells[i])
		}
		s.set[w] = now
	}
	return s.m
}

// occupancy is what repair reads instead of the matrix's columns: the tally
// of one pass over the positive cells plus, per node, the rows holding GPUs
// there in ascending order. Node n's list is rows[n*jobs:][:count[n]], a
// fixed stride, so the next pass resets every list by clearing the counts.
// Repair only lowers cells, so a list taken before it stays, in the same
// order, a superset of the rows still on the node: a reader that filters by
// the live cell sees exactly what a scan of the column would.
type occupancy struct {
	usage, count, span []int
	rows, cand         []uint32 // cand: the candidates of the node in hand
}

// newOccupancy cuts the scratch for a jobs × nodes problem from two arrays,
// so that a GA costs two allocations whatever its shape. The second array
// also holds spare mask words, returned zeroed after the scratch.
func newOccupancy(jobs, nodes, spare int) (occupancy, []uint32) {
	ints, words := make([]int, 2*nodes+jobs), make([]uint32, jobs*nodes+jobs+spare)
	return occupancy{
		usage: ints[:nodes], count: ints[nodes : 2*nodes], span: ints[2*nodes:],
		rows: words[:jobs*nodes], cand: words[jobs*nodes:][:jobs],
	}, words[jobs*nodes+jobs:]
}

// occupants returns node n's list as of the last tally.
func (o *occupancy) occupants(n int) []uint32 {
	return o.rows[n*len(o.span):][:o.count[n]]
}

// tally is Matrix.tally of a genome into o.usage and o.span, recording the
// occupants. It reads only the cells mask marks positive, in row-major
// order, so every list comes out in ascending row order.
func (o *occupancy) tally(cells []uint16, mask []uint32) {
	usage, count, jobs, nodes := o.usage, o.count[:len(o.usage)], len(o.span), len(o.usage)
	clear(usage)
	clear(count)
	clear(o.span)
	j, rowEnd := 0, nodes // cell rowEnd starts row j+1
	for w, bits := range mask {
		for ; bits != 0; bits &= bits - 1 {
			i := w*wordBits + mathbits.TrailingZeros32(bits)
			for i >= rowEnd {
				j, rowEnd = j+1, rowEnd+nodes
			}
			n := i - rowEnd + nodes
			usage[n] += int(cells[i])
			o.span[j]++
			o.rows[n*jobs+count[n]] = uint32(j)
			count[n]++
		}
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
	// called only on repaired (feasible) matrices. The matrix is the
	// calling scorer's scratch, loaded with the member being scored: it is
	// valid only during the call, and Fitness must neither write it nor
	// keep it. It must be a pure function of the matrix (so a copy of a
	// member keeps its score uncalled) and, when GOMAXPROCS > 1, safe
	// to call from multiple goroutines concurrently and while the caller of
	// New or Step mutates and repairs later offspring on the GA's rng: it
	// may read the matrix and state nothing writes during the call, never
	// the rng.
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
	// constraint sees span = local span + ExtraSpan, so a job with GPUs in
	// another rack counts as distributed even when it sits on one local
	// node. Ignored unless InterferenceAvoidance is set.
	ExtraSpan []int
}

// Options tunes the GA. The paper's defaults are population 100 and 100
// generations per 60 s scheduling interval.
type Options struct {
	Population int // default 100
}

func (o *Options) defaults() {
	if o.Population <= 0 {
		o.Population = 100
	}
}

// GA is the evolving population for one Problem. A GA is not safe for
// concurrent use, but it internally fans fitness evaluation out over
// GOMAXPROCS goroutines, read once by New. Only fitness evaluation fans
// out, and it overlaps the operators: New and Step start workers−1
// scorers, which score each member as soon as it is built, while
// mutation, crossover and repair stay on the caller's goroutine so the
// single *rand.Rand is never shared; the caller scores what is left once
// it has built them all. A generation too small to repay the hand-off
// (minScorerCells) is scored inline, as at GOMAXPROCS 1, which starts
// nothing. Every member is scored into a fixed slot, so results are
// bit-identical at any GOMAXPROCS.
type GA struct {
	prob    Problem
	opts    Options
	rng     *rand.Rand
	workers int // GOMAXPROCS when New ran

	// gen holds every genome the GA owns, 3 × Population of them, with
	// scores parallel to it: the population (pop, best first after a Step)
	// and then the offspring slots. Genomes are reused instead of being
	// reallocated every generation — offspring churn was the dominant
	// allocation source in scheduling-round profiles: selection leaves the
	// evicted genomes in the offspring slots for the next generation to
	// overwrite. New cuts the cells of every genome from one array and the
	// mask words from the occupancy's, so a GA's genomes cost one
	// allocation whatever their number.
	gen    []genome
	scores []float64
	pop    []genome // gen[:Population]
	idx    []int    // the offspring that can survive; scoring's flags before
	sorted bool     // pop is in selection order: a Step has run

	// Repair scratch (see repair), so repairing an offspring allocates
	// nothing.
	occ occupancy
	// lnGap is ln(1 − 1/N), the scale of the gaps between mutated cells
	// (not finite, and not read, at N ≤ 1).
	lnGap float64

	sc    scoring
	stats Stats
}

// Stats counts fitness work done since the GA was created, including the
// initial population evaluation. FitnessCalls counts members scored, an
// offspring that took its parent's score (see Step) included. CellsScored
// weights each member by the matrix area it scored (jobs × nodes):
// sub-problem evaluations in the hierarchical scheduler are cheap in
// proportion to their area, so cells — not raw calls — is the unit
// per-round speedups are measured in.
type Stats struct {
	FitnessCalls int64
	CellsScored  int64
}

// Stats returns the cumulative fitness-work counters.
func (g *GA) Stats() Stats { return g.stats }

// New creates a GA for the problem, seeded from the given matrices (the
// population carried over from the previous scheduling interval; may be
// nil or partial). Seeds with the wrong shape (a row count other than
// Jobs, or any row of a width other than the node count) or with a cell
// outside [0, MaxCapacity] are ignored; the rest of the population is
// filled with repaired random matrices and the zero matrix (all jobs
// paused), which is always feasible. One slot is reserved for the zero
// matrix even when the seeds alone would fill the population, so "pause
// everything" is always representable — except at Population 1, where the
// only slot goes to the first valid seed (a carried-over current
// allocation beats an all-paused search there). A node capacity above
// MaxCapacity is a programming error and panics.
func New(prob Problem, opts Options, rng *rand.Rand, seeds []Matrix) *GA {
	opts.defaults()
	size, jobs, nodes := opts.Population, prob.Jobs, len(prob.Capacity)
	for n, c := range prob.Capacity {
		if c > MaxCapacity {
			panic(fmt.Sprintf("ga: node %d has capacity %d, above MaxCapacity %d", n, c, MaxCapacity))
		}
	}
	g := &GA{prob: prob, opts: opts, rng: rng, workers: runtime.GOMAXPROCS(0), lnGap: math.Log(1 - 1/float64(nodes))}
	words, cells := maskWords(jobs, nodes), jobs*nodes
	var masks []uint32
	g.occ, masks = newOccupancy(jobs, nodes, 3*size*words)
	g.gen, g.scores, g.idx = make([]genome, 3*size), make([]float64, 3*size), make([]int, 2*size)
	pool := make([]uint16, 3*size*cells)
	for i := range g.gen {
		g.gen[i] = genome{cells: pool[i*cells:][:cells:cells], mask: masks[i*words:][:words:words]}
	}
	g.sc.copied = g.idx // free while members are scored
	g.sc.scratch = []scratch{newScratch(jobs, nodes)}
	g.pop = g.gen[:size]

	seedSlots := size - 1
	if size == 1 {
		seedSlots = 1
	}
	g.begin(g.pop, g.scores[:size])
	i := 0
	for _, s := range seeds {
		if i >= seedSlots {
			break
		}
		if len(s) != jobs || slices.ContainsFunc(s, func(row []int) bool { return len(row) != nodes }) {
			continue
		}
		c := g.pop[i]
		if !c.load(s, nodes) {
			clear(c.cells)
			clear(c.mask)
			continue
		}
		g.repair(c)
		g.publish(i, c, -1)
		i++
	}
	if i < size {
		g.publish(i, g.pop[i], -1) // the zero matrix
		i++
	}
	for ; i < size; i++ {
		c := g.pop[i]
		// Without nodes (a cluster that lost them all) every member is the
		// all-paused matrix of zero-width rows.
		for j := 0; j < jobs && nodes > 0; j++ {
			n := rng.Intn(nodes)
			if cap := prob.Capacity[n]; cap > 0 {
				c.cells[j*nodes+n] = uint16(1 + rng.Intn(cap))
				mark(c.mask, j*nodes+n, 1)
			}
		}
		g.repair(c)
		g.publish(i, c, -1)
	}
	g.end()
	return g
}

// Step runs one generation: mutate, crossover, repair, and survivor
// selection back down to the configured population size. Offspring are
// built into the genomes the last selection evicted, so a steady-state
// generation allocates nothing but its scorers (see Options); every reused
// genome is fully overwritten (mutation copies the parent first, crossover
// copies every row), so the generation draws and decides as one that
// clones, repairs and scores every offspring would (stepOracle in the
// tests): members are feasible and repairing one changes nothing, so a copy
// of a parent keeps its score, and one whose cells only fell skips repair.
func (g *GA) Step() {
	pop, off := g.pop, g.gen[len(g.pop):]
	g.begin(off, g.scores[len(pop):])
	// Mutation: each current member yields one mutated offspring.
	for i, m := range pop {
		c := off[i]
		copy(c.cells, m.cells)
		copy(c.mask, m.mask)
		from := -1
		if changed, rose := g.mutate(c); !changed {
			from = i
		} else if rose {
			g.repair(c)
		}
		g.publish(i, c, from)
	}
	// Crossover: pair tournament winners to produce the same number of
	// offspring again.
	for i := range pop {
		a, b := g.tournament(), g.tournament()
		c := off[len(pop)+i]
		switch isA, isB := g.crossoverInto(c, pop[a], pop[b]); {
		case isA:
			g.publish(len(pop)+i, c, a)
		case isB:
			g.publish(len(pop)+i, c, b)
		default:
			g.repair(c)
			g.publish(len(pop)+i, c, -1)
		}
	}
	g.end()
	g.selectSurvivors()
}

// selectSurvivors keeps what a stable sort of all 3 × Population members
// by score, best first, keeps, in that order. The population is in that
// order after a Step (the first sorts it); an offspring survives only if
// it beats the worst incumbent, as ties go to the incumbents, so only those
// are sorted and merged in from the back, each swapping places with the
// genome it displaces: the evicted ones end in the offspring slots.
func (g *GA) selectSurvivors() {
	size, scores := len(g.pop), g.scores
	swap := func(a, b int) {
		g.gen[a], g.gen[b] = g.gen[b], g.gen[a]
		scores[a], scores[b] = scores[b], scores[a]
	}
	for i := 1; i < size && !g.sorted; i++ {
		for k := i; k > 0 && cmp.Compare(scores[k], scores[k-1]) > 0; k-- {
			swap(k, k-1)
		}
	}
	g.sorted = true
	cand := g.idx[:0]
	for i := size; i < len(scores); i++ {
		if cmp.Compare(scores[i], scores[size-1]) > 0 {
			cand = append(cand, i)
		}
	}
	slices.SortFunc(cand, func(a, b int) int { return cmp.Or(cmp.Compare(scores[b], scores[a]), a-b) })
	// The t-th best candidate survives if it beats the t-th worst incumbent.
	s := 0
	for s < min(len(cand), size) && cmp.Compare(scores[cand[s]], scores[size-1-s]) > 0 {
		s++
	}
	for k, i, j := size-1, size-s-1, s-1; j >= 0; k-- {
		if i < 0 || cmp.Compare(scores[cand[j]], scores[i]) <= 0 {
			swap(k, cand[j])
			j--
		} else {
			swap(k, i)
			i--
		}
	}
}

// scoring scores the members New or Step builds: inline as each is built
// at GOMAXPROCS 1 or below minScorerCells, and otherwise on workers−1
// scorers that overlap the building. Slot i of ms and copied is written
// once, before ready passes i; a scorer claims a published slot by
// advancing next, so every slot is claimed exactly once whatever the
// interleaving, and scored into out[i] unless copied[i] is 1 (a copy that
// took its parent's score). A scorer that has caught up with the caller
// parks on wake; the caller sends a token only when idle says one is
// parked, so a scorer that keeps up costs it one atomic store and one load
// per member. Each scores into its own scratch matrix: scratch[0] is the
// caller's, scratch[k] scorer k's.
type scoring struct {
	ms                []genome
	out               []float64
	copied            []int // per slot: GA.idx, which selection reads only later
	fit               func(Matrix) float64
	scratch           []scratch
	inline            bool // no scorers: publish scores
	total             int32
	ready, next, idle atomic.Int32
	wake              chan struct{}
	wg                sync.WaitGroup
}

// minScorerCells is the least fitness work, in cells scored by one New or
// Step (members × jobs × nodes), for which scorers start. Below it,
// starting, feeding and joining them costs more than the overlap saves: a
// small member is scored in less time than it takes to hand it to another
// core. A 96 × 32 generation of population 50 scores 307k cells, and one
// scorer takes a fifth off its time; the GAs of the standard trace and the
// steady rack GAs of a 256-node service round score under 50k and run
// faster inline.
var minScorerCells = 1 << 18

// begin sets up scoring of the len(out) members publish will put into ms
// and, at GOMAXPROCS > 1 and enough cells, starts the scorers.
func (g *GA) begin(ms []genome, out []float64) {
	g.stats.FitnessCalls += int64(len(out))
	g.stats.CellsScored += int64(len(out)) * int64(g.prob.Jobs) * int64(len(g.prob.Capacity))
	s := &g.sc
	scorers := min(g.workers, len(out)) - 1
	if len(out)*g.prob.Jobs*len(g.prob.Capacity) < minScorerCells {
		scorers = 0
	}
	s.ms, s.out, s.fit, s.inline = ms, out, g.prob.Fitness, scorers <= 0
	if s.inline {
		return
	}
	if s.wake == nil {
		// A token for every scorer there can be, so that end can wake them
		// all without blocking.
		s.wake = make(chan struct{}, g.workers-1)
	}
	for len(s.scratch) <= scorers {
		s.scratch = append(s.scratch, newScratch(g.prob.Jobs, len(g.prob.Capacity)))
	}
	s.total = int32(len(out))
	s.ready.Store(0)
	s.next.Store(0)
	s.wg.Add(scorers)
	for k := 1; k <= scorers; k++ {
		go s.run(&s.scratch[k])
	}
}

// publish puts the built member c into slot i, scoring it inline without
// scorers and otherwise handing it to them. A member equal to the one
// scored at from (an index into scores; -1 for none) takes its score.
func (g *GA) publish(i int, c genome, from int) {
	s := &g.sc
	s.ms[i], s.copied[i] = c, 0
	if from >= 0 {
		s.out[i], s.copied[i] = g.scores[from], 1
	}
	if s.inline {
		s.score(i, &s.scratch[0])
		return
	}
	s.ready.Store(int32(i + 1))
	if s.idle.Load() > 0 {
		s.signal()
	}
}

// end wakes every parked scorer, scores the slots no scorer has claimed
// alongside them, and waits for all of them to return. Every slot is
// published by now, so no scorer parks again.
func (g *GA) end() {
	s := &g.sc
	if s.inline {
		return
	}
	for range cap(s.wake) {
		s.signal()
	}
	for i := s.claim(); i >= 0; i = s.claim() {
		s.score(i, &s.scratch[0])
	}
	s.wg.Wait()
	for len(s.wake) > 0 {
		<-s.wake // a token no scorer needed; the next generation starts clean
	}
}

// signal hands one parked scorer a token; a full channel already holds one
// for every scorer there is.
func (s *scoring) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// run is one scorer: it scores published slots into its scratch until
// every slot is claimed.
func (s *scoring) run(sc *scratch) {
	defer s.wg.Done()
	for i := s.claim(); i >= 0; i = s.claim() {
		s.score(i, sc)
	}
}

// score scores claimed slot i on sc unless its member copied a score.
func (s *scoring) score(i int, sc *scratch) {
	if s.copied[i] == 0 {
		s.out[i] = s.fit(sc.load(s.ms[i]))
	}
}

// claim returns the next unscored published slot, or -1 once every slot is
// claimed. Ahead of the caller it parks until a slot is published: it
// registers in idle before it looks again, and publish stores ready before
// it reads idle, so either this look sees the new slot or publish sees the
// scorer and sends a token. In end every slot is published, so the caller
// never parks.
func (s *scoring) claim() int {
	for {
		i := s.next.Load()
		if i >= s.total {
			return -1
		}
		if i < s.ready.Load() {
			if s.next.CompareAndSwap(i, i+1) {
				return int(i)
			}
			continue
		}
		s.idle.Add(1)
		if i := s.next.Load(); i < s.total && i >= s.ready.Load() {
			<-s.wake
		}
		s.idle.Add(-1)
	}
}

// Run executes the given number of generations and returns the best
// matrix found together with its fitness.
func (g *GA) Run(generations int) (Matrix, float64) {
	for i := 0; i < generations; i++ {
		g.Step()
	}
	return g.Best()
}

// Best returns the highest-fitness member of the current population as a
// matrix of its own: the caller's to keep or write.
func (g *GA) Best() (Matrix, float64) {
	bi := 0
	for i := range g.pop {
		if g.scores[i] > g.scores[bi] {
			bi = i
		}
	}
	return g.matrices(g.pop[bi : bi+1])[0], g.scores[bi]
}

// Population returns the current population, best first after a Step, as
// matrices of the caller's own: writing one changes neither the GA nor
// another. PolluxSched keeps them to seed the next interval.
func (g *GA) Population() []Matrix {
	return g.matrices(g.pop)
}

// matrices builds a dense matrix of each genome, all cut from one array.
func (g *GA) matrices(cs []genome) []Matrix {
	nodes := len(g.prob.Capacity)
	ms, flat := newMatrices(len(cs), g.prob.Jobs, nodes)
	for k, c := range cs {
		c.spread(flat[k*g.prob.Jobs*nodes:])
	}
	return ms
}

// mutate applies the paper's mutation: each element with probability 1/N
// (N = number of nodes) is set to a uniform random integer in [0, cap_n].
// It visits only the mutated cells, drawing the gaps between them from the
// geometric distribution one Bernoulli(1/N) coin per cell would produce
// (floor(ln U / ln(1-p)) with U uniform in (0,1]): O(jobs) expected draws
// per offspring where the coins cost jobs × nodes. It reports whether any
// cell changed and whether any rose.
func (g *GA) mutate(c genome) (changed, rose bool) {
	cells, nodes := c.cells, len(g.prob.Capacity)
	if nodes == 1 {
		// p = 1: every cell mutates, no gaps to sample.
		for j, old := range cells {
			v := g.rng.Intn(g.prob.Capacity[0] + 1)
			changed, rose = changed || v != int(old), rose || v > int(old)
			cells[j] = uint16(v)
			mark(c.mask, j, v)
		}
		return changed, rose
	}
	for i := 0; len(cells) > 0; i++ {
		u := 1 - g.rng.Float64() // (0,1], so Log is finite
		i += int(math.Log(u) / g.lnGap)
		if i >= len(cells) {
			break
		}
		v, old := g.rng.Intn(g.prob.Capacity[i%nodes]+1), int(cells[i])
		changed, rose = changed || v != old, rose || v > old
		cells[i] = uint16(v)
		mark(c.mask, i, v)
	}
	return changed, rose
}

// crossoverInto fills c by mixing rows of two parents uniformly at
// random; every row and its mask bits are overwritten, so c may be a
// recycled genome. It reports whether c equals a (every row it took from b
// equals a's) and whether it equals b.
func (g *GA) crossoverInto(c, a, b genome) (isA, isB bool) {
	nodes := len(g.prob.Capacity)
	isA, isB = true, true
	for j := range g.prob.Jobs {
		src := a
		if g.rng.Intn(2) == 1 {
			src = b
			isA = isA && sameRow(a, b, j, nodes)
		} else {
			isB = isB && sameRow(a, b, j, nodes)
		}
		lo, hi := j*nodes, (j+1)*nodes
		copy(c.cells[lo:hi], src.cells[lo:hi])
		copyBits(c.mask, src.mask, lo, hi)
	}
	return isA, isB
}

// sameRow reports whether row j holds equal cells in a and b: one genome,
// or equal mask bits and then equal positive cells (a cell whose bit is
// clear is zero).
func sameRow(a, b genome, j, nodes int) bool {
	if len(a.cells) > 0 && &a.cells[0] == &b.cells[0] {
		return true
	}
	for i, hi := j*nodes, (j+1)*nodes; i < hi; {
		w, n := i/wordBits, min(wordBits-i%wordBits, hi-i)
		keep := (uint32(1)<<n - 1) << (i % wordBits)
		if (a.mask[w]^b.mask[w])&keep != 0 {
			return false
		}
		for bits := a.mask[w] & keep; bits != 0; bits &= bits - 1 {
			if k := w*wordBits + mathbits.TrailingZeros32(bits); a.cells[k] != b.cells[k] {
				return false
			}
		}
		i += n
	}
	return true
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
// enabled) the interference-avoidance constraint. One pass over the
// positive cells feeds both: capacity repair keeps the spans current as it
// empties cells, and both keep the mask exact.
func (g *GA) repair(c genome) {
	g.occ.tally(c.cells, c.mask)
	g.occ.repairCapacity(c, g.prob.Capacity, g.rng)
	if g.prob.InterferenceAvoidance {
		g.occ.repairInterference(c, g.rng, g.prob.DistBlocked, g.prob.ExtraSpan)
	}
}

// repairMatrix is how the exported repairs reach the GA's: it loads m's
// first nodes columns into a genome of their own, tallies it, hands it to
// do and writes its cells back. A cell outside [0, MaxCapacity] panics.
func repairMatrix(m Matrix, nodes int, do func(*occupancy, genome)) {
	o, mask := newOccupancy(len(m), nodes, maskWords(len(m), nodes))
	c := genome{cells: make([]uint16, len(m)*nodes), mask: mask}
	if !c.load(m, nodes) {
		panic(fmt.Sprintf("ga: a matrix cell lies outside [0, %d]", MaxCapacity))
	}
	o.tally(c.cells, c.mask)
	do(&o, c)
	for j, row := range m {
		for n := range row[:nodes] {
			row[n] = int(c.cells[j*nodes+n])
		}
	}
}

// RepairCapacity decrements random positive elements within over-capacity
// columns until every node's allocation fits its GPU capacity, as in the
// paper's repair operation. The candidate set (jobs with GPUs on the
// node) is taken once per node and maintained in place as jobs hit
// zero, so repair is linear in jobs + excess rather than quadratic. Every
// cell must lie in [0, MaxCapacity].
func RepairCapacity(m Matrix, capacity []int, rng *rand.Rand) {
	repairMatrix(m, len(capacity), func(o *occupancy, c genome) { o.repairCapacity(c, capacity, rng) })
}

// repairCapacity is RepairCapacity given c's tally. Repairing node n
// writes only column n, so the usage of later nodes stays valid and every
// occupant listed for n still holds GPUs there; span and mask are kept
// current as cells reach zero.
func (o *occupancy) repairCapacity(c genome, capacity []int, rng *rand.Rand) {
	nodes := len(o.usage)
	for n, cap := range capacity {
		over := o.usage[n] - cap
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
			k := int(j)*nodes + n
			c.cells[k]--
			if c.cells[k] == 0 {
				cand[i] = cand[len(cand)-1]
				cand = cand[:len(cand)-1]
				o.span[j]--
				mark(c.mask, k, 0)
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
// draws. Every cell must lie in [0, MaxCapacity].
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
	repairMatrix(m, len(m[0]), func(o *occupancy, c genome) { o.repairInterference(c, rng, blocked, extraSpan) })
}

// repairInterference is RepairInterferenceSub given c's tally, whose spans
// it widens by extraSpan; it keeps the mask current as it evicts.
func (o *occupancy) repairInterference(c genome, rng *rand.Rand, blocked []bool, extraSpan []int) {
	span, nodes := o.span, len(o.usage)
	if extraSpan != nil {
		for j := range span {
			span[j] += extraSpan[j]
		}
	}
	evict := func(j uint32, n int) {
		k := int(j)*nodes + n
		c.cells[k] = 0
		span[j]--
		mark(c.mask, k, 0)
	}
	for n, count := range o.count {
		occupants := o.occupants(n)
		if blocked != nil && blocked[n] {
			// The outside distributed job keeps the node; every
			// distributed sub-problem job leaves it. There is no choice
			// to randomize (all must go), so eviction runs in row order
			// and the rng is untouched. Evicting j changes only j's own
			// span, so one pass with live span checks suffices.
			for _, j := range occupants {
				if c.cells[int(j)*nodes+n] > 0 && span[j] > 1 {
					evict(j, n)
				}
			}
			continue
		}
		if count < 2 {
			continue // nobody to share the node with
		}
		dist := o.cand[:0]
		for _, j := range occupants {
			if c.cells[int(j)*nodes+n] > 0 && span[j] > 1 {
				dist = append(dist, j)
			}
		}
		for len(dist) > 1 {
			// Evict a random distributed job from this node, keeping the
			// others. Everything still listed spans > 1 node right now:
			// the list was filtered by the live counts and an eviction
			// shrinks only the evicted job's own span.
			i := rng.Intn(len(dist))
			evict(dist[i], n)
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
