package sched

// One scheduling round for PolluxSched.
//
// The paper re-optimizes every job's placement with one cluster-wide GA
// each interval (Sec. 4.2.1). That is still what a default round does, but
// it is the widest setting of one procedure, not a separate one:
//
//	newRound   each view job's record, and the placement of its current row
//	dirtySet   which jobs to re-place (view indices, "sub")
//	solve      residual capacity and blocked nodes left by the clean rows,
//	           speedup tables and Eqn. 16 weights of the sub jobs (price), a
//	           node-level GA (solveNodes) for the sub rows, compose with the
//	           clean rows, keep the population as next round's seeds and the
//	           rows and job signatures for the next dirty set
//
// A default round has every job dirty and solves them on one rack that
// spans all nodes. Two options (see PolluxOptions) narrow it, because a
// round costs O(population × generations × jobs × nodes) fitness cells,
// which dominates wall clock at 512–1024 nodes:
//
//  1. Incremental. A row that does not move contributes a constant to
//     Eqn. 14, so only the jobs whose model, phase or demand changed since
//     the last committed matrix, their placement neighbors and a bounded
//     batch of queued jobs are re-placed; clean rows carry forward
//     verbatim, and FullEvery forces periodic all-dirty rounds.
//
//  2. RackSize. A coarse GA first assigns each sub job GPU counts per rack
//     (racks as super-nodes, priced by speedupTable.SpeedupRack), then
//     solveNodes runs once per rack with the shares in other racks as
//     fixed context: O(racks) + O(nodes/rack) per matrix row, not O(nodes).
//
// solveNodes holds the only node-level Eqn. 14 fitness. The default round
// differs from a narrowed one through data it reads, not a mode: what is
// seeded first and what carries over (docs/architecture.md, "One
// scheduling round").
//
// Ownership. An allocation row is an immutable value: once it is in a
// view's Current, in a matrix Schedule returned or in the state kept here,
// nobody writes a cell of it again, and a change is a new slice. So rows
// are shared, not copied. The matrix a round returns is composed of row
// headers (round.compose): a clean job's row is the view's own slice, a
// re-placed job's row is the view's slice again when the solver reproduced
// it and one fresh slice of its own otherwise, so no surviving row pins a
// solver's backing array. That same matrix is the committed state,
// incState.rows and the champion seed prevPop[0]. With a backend that
// installs rows by reference (cluster.State) the ledger's row, the next
// view's Current[i] and the row kept here are then one slice, and every
// "did it change" question — here, in runtime.Step, in the ledger — is
// answered by slice identity (ga.SameRow) before any cell is read. The
// passes that remain on a steady round are in docs/architecture.md. A
// skipped round keeps the state it has.

import (
	"slices"

	"repro/internal/core"
	"repro/internal/ga"
)

// jobRec is what Pollux carries about one job from one round to the next.
// A record lives from the round the job arrives in until the first solved
// round without it, so nothing is kept for a job outside the last view.
type jobRec struct {
	id int
	// pos is the job's row in the last solved round's matrices (prevPop,
	// inc.rows) and its index in Pollux.recs; -1 until the round the job
	// arrived in is kept.
	pos int
	// sig is the job's signature as of the committed matrix (Incremental
	// only). placed summarizes its row: the committed row between rounds,
	// the view's current row from newRound on, so that a row is read only
	// when it is not the slice already summarized.
	sig    SigSnapshot
	placed core.Placement
	// table memoizes the job's SPEEDUP; nil until a round re-places it.
	table *speedupTable
}

// incState is the cross-round dirty-set state: the committed matrix as of
// the last round that solved anything, its rows in the order of
// Pollux.recs (whose records hold the per-job part, signature and
// placement), and the capacity it was solved for.
type incState struct {
	rows ga.Matrix // see Ownership
	cap  []int
}

// seedCellBudget bounds the matrix cells carried over as GA seeds from
// one round to the next: at mega scale a full population of job × node
// matrices is hundreds of MB, so carryover degrades gracefully toward
// champion-only as matrices grow.
const seedCellBudget = 16 << 20

// allJobs is the dirty set of a full round: every view index.
func allJobs(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// sigOf is the job's change signature; differs compares a kept one with
// the job as it is now, which is what makes a job dirty.
func sigOf(j *JobView) SigSnapshot {
	return SigSnapshot{Model: j.Model, GPUCap: j.GPUCap, MinGPUs: j.MinGPUs}
}

func (s *SigSnapshot) differs(j *JobView) bool {
	return s.Model != j.Model || s.GPUCap != j.GPUCap || s.MinGPUs != j.MinGPUs
}

// dirtySet returns the view indices to re-place this round, in view
// order. It is every job unless Incremental is set and the committed state
// still describes this cluster and view; then it is the jobs whose
// signature changed (agent refit, demand change), jobs whose live
// allocation no longer matches the committed row (restart or external
// change), new jobs, clean jobs with GPUs on affected nodes (placement
// neighbors of changes and departures, one hop), and up to queuedPerRound
// clean queued jobs competing for freed capacity. An empty set means
// nothing changed at all. When more than 3/4 of the jobs are dirty the
// set widens to all of them: a full round does less redundant work.
func (r *round) dirtySet() []int {
	p, v := r.p, r.v
	st := p.inc
	jobs := v.Jobs
	if !p.opts.Incremental || st == nil || !slices.Equal(st.cap, v.Capacity) ||
		len(v.Current) != len(jobs) ||
		(p.opts.FullEvery > 0 && p.sinceFull >= p.opts.FullEvery) {
		return allJobs(len(jobs))
	}
	dirty := make([]bool, len(jobs))
	affected := make([]bool, len(v.Capacity))
	anyChange := false
	markRow := func(row []int) {
		for n, g := range row {
			if g > 0 {
				affected[n] = true
			}
		}
	}
	for i, rec := range r.recs {
		switch {
		case rec.pos < 0:
			dirty[i] = true // arrival
		case rec.sig.differs(&jobs[i]):
			dirty[i] = true // refit or demand change
			markRow(st.rows[rec.pos])
		case !ga.EqualRows(v.Current[i], st.rows[rec.pos]):
			dirty[i] = true // restarted or moved outside the scheduler
			markRow(st.rows[rec.pos])
		}
		if dirty[i] {
			anyChange = true
			markRow(v.Current[i])
		}
	}
	// Departed jobs free their nodes for neighbors to claim.
	for pi, live := range r.seen {
		if !live {
			anyChange = true
			markRow(st.rows[pi])
		}
	}
	if !anyChange {
		return []int{}
	}
	sub := make([]int, 0, len(jobs))
	queued := 0
	for i := range jobs {
		if !dirty[i] {
			if r.recs[i].placed.GPUs == 0 {
				// Clean queued job: a bounded batch per round may compete
				// for the capacity this round frees.
				if queued < queuedPerRound {
					queued++
					dirty[i] = true
				}
			} else {
				for n, g := range v.Current[i] {
					if g > 0 && affected[n] {
						dirty[i] = true // placement neighbor
						break
					}
				}
			}
		}
		if dirty[i] {
			sub = append(sub, i)
		}
	}
	if 4*len(sub) > 3*len(jobs) {
		return allJobs(len(jobs))
	}
	return sub
}

// round is the data of one Schedule call: newRound fills what dirtySet
// reads, solve the rest for the jobs it re-places.
type round struct {
	p *Pollux
	v *ClusterView
	// recs is each view job's record, a fresh one for a job the last solved
	// round did not have; its placed summarizes the job's current row (zero
	// where the view has none): is the job queued, running, distributed.
	// seen flags the positions of the last solved round that are in this
	// view; the others departed.
	recs []*jobRec
	seen []bool

	sub []int     // view indices being re-placed, ascending
	cur ga.Matrix // per sub job: its current row (zeros when the view has none)
	// Per sub job: speedup table, Eqn. 16 weight, and whether it holds GPUs
	// now (so that moving it costs a restart); sumW is the weight of all jobs.
	tables  []*speedupTable
	weights []float64
	running []bool
	sumW    float64
	// Per node: the capacity the clean rows leave, and whether a clean
	// distributed job sits there (Sec. 4.2.1 then forbids a second one).
	residual []int
	blocked  []bool
}

// newRound finds each job's record and summarizes the view's current rows,
// reading only those that are not the committed slice. A view mostly
// repeats the last one's order, so the record is looked for right after
// the previous job's, and by ID only where it is not there: after a
// departure, at an arrival, under a front end that reorders.
func (p *Pollux) newRound(v *ClusterView) *round {
	r := &round{p: p, v: v, recs: make([]*jobRec, len(v.Jobs)), seen: make([]bool, len(p.recs))}
	next := 0
	for i := range v.Jobs {
		id := v.Jobs[i].ID
		var rec *jobRec
		if next < len(p.recs) && p.recs[next].id == id {
			rec = p.recs[next]
		} else if rec = p.byID[id]; rec == nil {
			rec = &jobRec{id: id, pos: -1}
		}
		if rec.pos >= 0 {
			r.seen[rec.pos], next = true, rec.pos+1
		}
		r.recs[i] = rec
		switch {
		case i >= len(v.Current):
			rec.placed = core.Placement{}
		case p.inc != nil && rec.pos >= 0 && ga.SameRow(v.Current[i], p.inc.rows[rec.pos]):
		default:
			rec.placed = PlacementOf(v.Current[i])
		}
	}
	return r
}

// price fetches what the fitness functions read about the sub jobs: the
// current row, the speedup table, the Eqn. 16 weight. The weight sum is
// over all jobs and accumulated in job order in its own loop, matching the
// historical computation bit for bit.
func (r *round) price(sub []int) {
	p, v := r.p, r.v
	r.sumW = 0
	for i := range v.Jobs {
		r.sumW += p.weight(v.Jobs[i].GPUTime)
	}
	if r.sumW == 0 {
		r.sumW = 1
	}
	r.sub = sub
	r.cur = make(ga.Matrix, len(sub))
	r.tables = make([]*speedupTable, len(sub))
	r.weights = make([]float64, len(sub))
	r.running = make([]bool, len(sub))
	zero := make([]int, len(v.Capacity))
	maxK := v.TotalGPUs()
	for si, i := range sub {
		r.cur[si] = zero
		if i < len(v.Current) {
			r.cur[si] = v.Current[i]
		}
		r.tables[si] = r.recs[i].cachedTable(&v.Jobs[i], maxK, len(v.Capacity))
		r.weights[si] = p.weight(v.Jobs[i].GPUTime)
		r.running[si] = r.recs[i].placed.GPUs > 0
	}
}

// solve re-places the sub jobs (view indices, ascending) against the
// residual capacity left by the clean rows, which carry forward verbatim.
// Clean rows contribute a constant to Eqn. 14, so optimizing the sub rows
// alone optimizes the full objective over this round's allowed moves.
// With racks set the sub rows come from the coarse-then-per-rack solve,
// otherwise from one solveNodes over all nodes. It returns the composed
// full matrix and keeps what the next round needs (see keep), or returns
// nil if the composition would fail the defensive feasibility check.
func (r *round) solve(sub []int, racks bool) ga.Matrix {
	p, v := r.p, r.v
	jobs := v.Jobs
	nodes := len(v.Capacity)
	inSub := make([]bool, len(jobs))
	for _, i := range sub {
		inSub[i] = true
	}

	// clash: the clean rows alone overdraw a node, or two distributed ones
	// share one, so no choice of sub rows makes the round feasible.
	avoid, clash := !p.opts.DisableInterferenceAvoidance, false
	r.residual = append([]int(nil), v.Capacity...)
	r.blocked = make([]bool, nodes)
	for i := range jobs {
		if inSub[i] || r.recs[i].placed.Nodes == 0 {
			continue // a row with no positive cell leaves every node as it is
		}
		dist := r.recs[i].placed.Nodes > 1
		for n, g := range v.Current[i] {
			if g > 0 {
				// Clamped defensively: the live matrix may be over capacity.
				clash = clash || g > r.residual[n] || (avoid && dist && r.blocked[n])
				r.residual[n] = max(0, r.residual[n]-g)
				if dist {
					r.blocked[n] = true
				}
			}
		}
	}

	r.price(sub)

	var rows ga.Matrix
	var pop []ga.Matrix
	if racks {
		rows = r.solveRacks()
	} else {
		mem := make([]member, len(sub))
		for si := range mem {
			mem[si] = member{si: si, cur: r.cur[si]}
		}
		// Always seed the currently applied allocation when there is one:
		// keeping everything in place must be representable so restarts
		// stay justified.
		var seeds []ga.Matrix
		if len(v.Current) == len(jobs) {
			seeds = append(seeds, r.cur)
		}
		seeds = append(seeds, r.subSeeds()...)
		rows, pop = r.solveNodes(mem, 0, nodes, seeds, p.opts.Population, p.opts.Generations)
	}

	// The composition is feasible when the clean rows do not clash among
	// themselves and the sub rows fit what they leave; nothing re-reads the
	// clean rows to find that out.
	whole := !racks && len(sub) == len(jobs) // repaired GA output as it stands
	if !whole && (clash || !ga.FeasibleSub(rows, r.residual, avoid, r.blocked, nil)) {
		return nil
	}
	out := r.compose(rows)
	r.keep(out, rows, pop, whole)
	return out
}

// compose builds a full matrix of row headers around one solver result
// (see Ownership above): a clean job's row is the view's, a sub job's is
// its current row when the solver reproduced it and else a copy of the
// solver's, which borrows its rows from the GA.
func (r *round) compose(subRows ga.Matrix) ga.Matrix {
	m := make(ga.Matrix, len(r.v.Jobs))
	copy(m, r.v.Current)
	for si, i := range r.sub {
		m[i] = r.cur[si]
		if !slices.Equal(subRows[si], m[i]) {
			m[i] = slices.Clone(subRows[si])
		}
	}
	return m
}

// keep carries the round's result into the next one: the GA seeds within
// the cell budget and, with Incremental, the committed matrix (out itself)
// and job signatures the next dirty set compares against. A whole-view
// population that fits carries as it stands, in GA order; otherwise the
// champion carries first and the other members (best first) follow while
// the budget lasts.
func (r *round) keep(out, rows ga.Matrix, pop []ga.Matrix, whole bool) {
	p, jobs := r.p, r.v.Jobs
	budget := max(1, seedCellBudget/max(1, len(jobs)*len(r.v.Capacity)))
	var carried []ga.Matrix
	if whole && len(pop) <= budget {
		for _, m := range pop {
			carried = append(carried, m.Clone())
		}
	} else {
		carried = append(carried, out)
		for _, m := range pop {
			if len(carried) >= budget {
				break
			}
			if !m.Equal(rows) { // the champion is already carried
				carried = append(carried, r.compose(m))
			}
		}
	}
	// The view's records become the scheduler's, in the view's order: the
	// departed ones leave the ID map and the arrivals join it.
	old := p.recs
	p.prevPop, p.recs = carried, r.recs
	for pi, live := range r.seen {
		if !live {
			delete(p.byID, old[pi].id)
		}
	}
	for i, rec := range r.recs {
		if rec.pos < 0 {
			p.byID[rec.id] = rec
		}
		rec.pos = i
	}
	if !p.opts.Incremental {
		return
	}
	// A job outside sub has the signature and the row it had.
	for _, i := range r.sub {
		r.recs[i].sig, r.recs[i].placed = sigOf(&jobs[i]), PlacementOf(out[i])
	}
	p.inc = &incState{rows: out, cap: append([]int(nil), r.v.Capacity...)}
}

// subSeeds projects the carried population onto the sub jobs' rows by
// job ID, so seeds survive arrivals, departures, and sparse or reordered
// IDs; jobs the carried population does not know start with zero rows.
func (r *round) subSeeds() []ga.Matrix {
	p := r.p
	if p.prevPop == nil {
		return nil
	}
	nodes := len(r.v.Capacity)
	seeds := make([]ga.Matrix, 0, len(p.prevPop))
	for _, prev := range p.prevPop {
		m := ga.NewMatrix(len(r.sub), nodes)
		for si, i := range r.sub {
			if pi := r.recs[i].pos; pi >= 0 && pi < len(prev) && len(prev[pi]) == nodes {
				copy(m[si], prev[pi])
			}
		}
		seeds = append(seeds, m)
	}
	return seeds
}

// member is one job of a node-level solve.
type member struct {
	si  int   // the job's index in the round's sub
	cur []int // its current row over the solve's columns
	// Fixed context from the coarse rack pass, zero on a single-rack
	// solve: GPUs, estimated nodes and racks the job holds outside the
	// solve's columns, and whether those outside shares differ from the
	// current allocation (which forces a restart whatever happens here).
	otherK, otherNodes, otherRacks int
	otherChanged                   bool
}

// solveNodes runs the node-level GA for the members over node columns
// [n0, n1) and returns the best member-row matrix and the final
// population (both borrowed from the GA, best first).
func (r *round) solveNodes(mem []member, n0, n1 int, seeds []ga.Matrix, popSize, gens int) (ga.Matrix, []ga.Matrix) {
	p := r.p
	extraSpan := make([]int, len(mem))
	for mi := range mem {
		extraSpan[mi] = mem[mi].otherNodes
	}
	fitness := func(m ga.Matrix) float64 {
		total := 0.0
		for mi := range mem {
			c := &mem[mi]
			local := PlacementOf(m[mi])
			racks := c.otherRacks
			if local.GPUs > 0 {
				racks++
			}
			s := r.tables[c.si].SpeedupRack(local.GPUs+c.otherK, local.Nodes+c.otherNodes, racks)
			if r.running[c.si] && (c.otherChanged || !slices.Equal(m[mi], c.cur)) { // a move restarts it
				s -= restartPenalty
			}
			total += r.weights[c.si] * s
		}
		return total / r.sumW
	}
	g := ga.New(ga.Problem{
		Capacity:              r.residual[n0:n1],
		Jobs:                  len(mem),
		Fitness:               fitness,
		InterferenceAvoidance: !p.opts.DisableInterferenceAvoidance,
		DistBlocked:           r.blocked[n0:n1],
		ExtraSpan:             extraSpan,
	}, ga.Options{Population: popSize, Workers: p.opts.Workers}, p.rng, seeds)
	best, _ := g.Run(gens)
	p.addStats(g.Stats())
	return best, g.Population()
}

// solveRacks is the two-level solve: a coarse GA assigns each sub job GPU
// counts per rack, then solveNodes refines node placements rack by rack
// within the coarse assignment. Returns the sub-row matrix (len(sub) ×
// nodes) and records the number of racks refined.
func (r *round) solveRacks() ga.Matrix {
	p, v, sub := r.p, r.v, r.sub
	nodes := len(v.Capacity)
	size := p.opts.RackSize
	racks := (nodes + size - 1) / size

	rackCap := make([]int, racks)   // residual GPUs per rack
	rackNodes := make([]int, racks) // nodes per rack
	rackMaxPer := make([]int, racks)
	for n := 0; n < nodes; n++ {
		rk := n / size
		rackCap[rk] += r.residual[n]
		rackNodes[rk]++
		rackMaxPer[rk] = max(rackMaxPer[rk], v.Capacity[n])
	}

	// The coarse fitness fans out over workers; allocate the cross-rack
	// table layers serially first.
	for _, t := range r.tables {
		t.ensureRack()
	}

	// estNodes estimates the nodes g GPUs occupy in rack rk when packed
	// densely (the refinement pass prefers dense packings, so this is
	// the span the coarse pass should price).
	estNodes := func(rk, g int) int {
		if g <= 0 {
			return 0
		}
		per := rackMaxPer[rk]
		if per <= 0 {
			return rackNodes[rk]
		}
		return min((g+per-1)/per, rackNodes[rk])
	}

	// Current coarse assignment: sub jobs' rows aggregated by rack.
	curCoarse := ga.NewMatrix(len(sub), racks)
	for si := range sub {
		for n, g := range r.cur[si] {
			if g > 0 {
				curCoarse[si][n/size] += g
			}
		}
	}

	coarseFitness := func(m ga.Matrix) float64 {
		total := 0.0
		for si := range sub {
			k, nd, spanned := 0, 0, 0
			for rk, g := range m[si] {
				if g > 0 {
					k += g
					nd += estNodes(rk, g)
					spanned++
				}
			}
			s := r.tables[si].SpeedupRack(k, nd, spanned)
			if r.running[si] && !slices.Equal(m[si], curCoarse[si]) {
				s -= restartPenalty
			}
			total += r.weights[si] * s
		}
		return total / r.sumW
	}
	// Interference is a node-granularity constraint; at rack granularity
	// it would forbid valid placements, so the coarse pass skips it and
	// the refinement passes enforce it.
	cg := ga.New(ga.Problem{
		Capacity: rackCap,
		Jobs:     len(sub),
		Fitness:  coarseFitness,
	}, ga.Options{Population: p.opts.Population, Workers: p.opts.Workers}, p.rng, []ga.Matrix{curCoarse})
	coarse, _ := cg.Run(p.opts.Generations)
	p.addStats(cg.Stats())

	// Per-job cross-rack aggregates fixed by the coarse assignment.
	totalK := make([]int, len(sub))
	spannedRacks := make([]int, len(sub))
	estSpan := make([]int, len(sub)) // estimated nodes across all racks
	for si := range sub {
		for rk, g := range coarse[si] {
			if g > 0 {
				totalK[si] += g
				spannedRacks[si]++
				estSpan[si] += estNodes(rk, g)
			}
		}
	}

	rows := ga.NewMatrix(len(sub), nodes)
	p.lastStats.Racks = 0
	for rk := 0; rk < racks; rk++ {
		n0 := rk * size
		n1 := min(n0+size, nodes)
		// The rack's members are the jobs the coarse pass gave GPUs here.
		var mem []member
		for si := range sub {
			local := coarse[si][rk]
			if local <= 0 {
				continue
			}
			c := member{
				si:         si,
				cur:        r.cur[si][n0:n1],
				otherK:     totalK[si] - local,
				otherNodes: estSpan[si] - estNodes(rk, local),
				otherRacks: spannedRacks[si] - 1,
			}
			for rr := range coarse[si] {
				if rr != rk && coarse[si][rr] != curCoarse[si][rr] {
					c.otherChanged = true
					break
				}
			}
			mem = append(mem, c)
		}
		if len(mem) == 0 {
			continue
		}
		// Seeds: the current local segments, and the coarse shares packed
		// densely onto the rack's freest nodes.
		seedCur := make(ga.Matrix, len(mem))
		seedPack := ga.NewMatrix(len(mem), n1-n0)
		free := append([]int(nil), r.residual[n0:n1]...)
		for mi, c := range mem {
			seedCur[mi] = c.cur
			packJob(seedPack[mi], free, coarse[c.si][rk])
		}
		best, _ := r.solveNodes(mem, n0, n1, []ga.Matrix{seedCur, seedPack}, refinePop, refineGens)
		for mi, c := range mem {
			copy(rows[c.si][n0:n1], best[mi])
		}
		p.lastStats.Racks++
	}
	return rows
}
