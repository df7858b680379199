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
// it and otherwise a slice of its own (the rack solve's row, adopted, or a
// copy of the flat solve's), so no surviving row pins a solver's backing
// array. The seeds a round hands the GA are row headers over the kept
// matrices' rows, and a job without a row reads one zero row. That same
// matrix is the committed state, incState.rows and the champion seed
// prevPop[0]. With a backend that
// installs rows by reference (cluster.State) the ledger's row, the next
// view's Current[i] and the row kept here are then one slice, and every
// "did it change" question — here, in runtime.Step, in the ledger — is
// answered by slice identity (ga.SameRow) before any cell is read. The
// population a flat solve builds (ga.GA.Population) is the caller's, its
// matrices cut from one array: a whole-view population is kept as it
// stands or not at all, so no kept matrix pins a dropped one, and like
// every row it is never written again. The passes that remain on a
// steady round are in docs/architecture.md. A skipped round keeps the
// state it has.

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
func (r *round) allJobs() []int {
	r.all = resize(r.all, len(r.v.Jobs))
	for i := range r.all {
		r.all[i] = i
	}
	return r.all
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
		return r.allJobs()
	}
	r.dirty, r.affected = resize(r.dirty, len(jobs)), resize(r.affected, len(v.Capacity))
	dirty, affected := r.dirty, r.affected
	clear(dirty)
	clear(affected)
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
	sub := r.picked[:0]
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
	r.picked = sub
	if 4*len(sub) > 3*len(jobs) {
		return r.allJobs()
	}
	return sub
}

// round is the data of one Schedule call: newRound fills what dirtySet
// reads, solve the rest for the jobs it re-places. Pollux keeps one round
// and refills it, so its O(jobs) slices are allocated once, not per call;
// release drops what they point at when the call ends, so between calls
// they pin no record, table or row.
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
	// zero is the all-zero row every sub job without one shares: in cur,
	// in seeds and in the rows of a rack solve. Like every row it is never
	// written, so it is kept while the node count stays.
	zero []int

	// Buffers behind the slices above and below (all, picked: the dirty
	// sets dirtySet returns; dirty, affected, inSub: its and solve's flags;
	// mem: the members of one node-level solve).
	all, picked            []int
	dirty, affected, inSub []bool
	mem                    []member
}

// newRound finds each job's record and summarizes the view's current rows,
// reading only those that are not the committed slice. A view mostly
// repeats the last one's order, so the record is looked for right after
// the previous job's, and by ID only where it is not there: after a
// departure, at an arrival, under a front end that reorders.
//
// The records are filled into the array the scheduler let go in the last
// keep, never into p.recs, which this reads.
func (p *Pollux) newRound(v *ClusterView) *round {
	r := &p.buf
	r.p, r.v = p, v
	r.recs, r.seen = resize(r.recs, len(v.Jobs)), resize(r.seen, len(p.recs))
	clear(r.seen)
	if len(r.zero) != len(v.Capacity) {
		r.zero = make([]int, len(v.Capacity))
	}
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

// release ends the call: the round's pointers to the view, records,
// tables and rows go, its arrays stay for the next call.
func (r *round) release() {
	clear(r.recs[:cap(r.recs)])
	clear(r.cur[:cap(r.cur)])
	clear(r.tables[:cap(r.tables)])
	clear(r.mem[:cap(r.mem)])
	r.v = nil
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
	r.cur, r.tables = resize(r.cur, len(sub)), resize(r.tables, len(sub))
	r.weights, r.running = resize(r.weights, len(sub)), resize(r.running, len(sub))
	maxK := v.TotalGPUs()
	for si, i := range sub {
		r.cur[si] = r.zero
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
	r.inSub = resize(r.inSub, len(jobs))
	inSub := r.inSub
	clear(inSub)
	for _, i := range sub {
		inSub[i] = true
	}

	// clash: the clean rows alone overdraw a node, or two distributed ones
	// share one, so no choice of sub rows makes the round feasible.
	avoid, clash := !p.opts.DisableInterferenceAvoidance, false
	r.residual = append(r.residual[:0], v.Capacity...)
	r.blocked = resize(r.blocked, nodes)
	clear(r.blocked)
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
		mem := resize(r.mem, len(sub))
		for si := range mem {
			mem[si] = member{si: si, cur: r.cur[si]}
		}
		r.mem = mem
		// Always seed the currently applied allocation when there is one:
		// keeping everything in place must be representable so restarts
		// stay justified.
		var seeds []ga.Matrix
		if len(v.Current) == len(jobs) {
			seeds = append(seeds, r.cur)
		}
		seeds = append(seeds, r.subSeeds()...)
		// Generations is at least 1, so the GA has stepped and its
		// population is best first: pop[0] is the member Best would build
		// again. Sharing it as rows leaves the round bit-identical: compose
		// copies every row it keeps from it, and keep skips the members
		// equal to it.
		pop = r.solveNodes(mem, 0, nodes, seeds, p.opts.Population, p.opts.Generations).Population()
		rows = pop[0]
	}

	// The composition is feasible when the clean rows do not clash among
	// themselves and the sub rows fit what they leave; nothing re-reads the
	// clean rows to find that out.
	whole := !racks && len(sub) == len(jobs) // repaired GA output as it stands
	if !whole && (clash || !ga.FeasibleSub(rows, r.residual, avoid, r.blocked, nil)) {
		return nil
	}
	out := r.compose(rows, racks)
	r.keep(out, rows, pop, whole)
	return out
}

// compose builds a full matrix of row headers around one solver result
// (see Ownership above): a clean job's row is the view's, a sub job's is
// its current row when the solver reproduced it and else the solver's.
// With adopt the solver's row is taken as it is, which suits a solve that
// gives every row a slice of its own (solveRacks); otherwise it is copied,
// so that no committed row pins the solver's whole matrix. The flat solve's
// rows are GA.Population()'s, one array for all members, so one adopted
// row would pin all of them for as long as it stays installed: adopting
// them read 14.2 MB of live heap on svc_round_full32 against 4.3 MB
// copying.
func (r *round) compose(subRows ga.Matrix, adopt bool) ga.Matrix {
	m := make(ga.Matrix, len(r.v.Jobs))
	copy(m, r.v.Current)
	for si, i := range r.sub {
		m[i] = r.cur[si]
		if !slices.Equal(subRows[si], m[i]) {
			m[i] = subRows[si]
			if !adopt {
				m[i] = slices.Clone(m[i])
			}
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
		carried = append(carried, pop...) // the GA is done with them
	} else {
		carried = append(carried, out)
		for _, m := range pop {
			if len(carried) >= budget {
				break
			}
			if !m.Equal(rows) { // the champion is already carried
				carried = append(carried, r.compose(m, false))
			}
		}
	}
	// The view's records become the scheduler's, in the view's order: the
	// departed ones leave the ID map and the arrivals join it.
	old, recs := p.recs, r.recs
	p.prevPop, p.recs = carried, recs
	for pi, live := range r.seen {
		if !live {
			delete(p.byID, old[pi].id)
		}
	}
	clear(old)
	r.recs = old[:0] // the next round fills this array
	for i, rec := range recs {
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
		recs[i].sig, recs[i].placed = sigOf(&jobs[i]), PlacementOf(out[i])
	}
	if p.inc == nil {
		p.inc = &incState{}
	}
	p.inc.rows, p.inc.cap = out, append(p.inc.cap[:0], r.v.Capacity...)
}

// subSeeds projects the carried population onto the sub jobs' rows by
// job ID, so seeds survive arrivals, departures, and sparse or reordered
// IDs; jobs the carried population does not know start with the zero row.
// A seed is row headers over the carried matrices' own rows, which ga.New
// reads once and never writes.
func (r *round) subSeeds() []ga.Matrix {
	p := r.p
	if p.prevPop == nil {
		return nil
	}
	nodes, n := len(r.v.Capacity), len(r.sub)
	seeds := make([]ga.Matrix, len(p.prevPop))
	headers := make(ga.Matrix, len(p.prevPop)*n)
	for k, prev := range p.prevPop {
		m := headers[k*n : (k+1)*n : (k+1)*n]
		for si, i := range r.sub {
			m[si] = r.zero
			if pi := r.recs[i].pos; pi >= 0 && pi < len(prev) && len(prev[pi]) == nodes {
				m[si] = prev[pi]
			}
		}
		seeds[k] = m
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
// [n0, n1) and returns it after the last generation. The caller builds
// what it reads of it: the best member-row matrix, and the final
// population (best first) where it carries one; both are the caller's (see
// Ownership).
func (r *round) solveNodes(mem []member, n0, n1 int, seeds []ga.Matrix, popSize, gens int) *ga.GA {
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
	}, ga.Options{Population: popSize}, p.rng, seeds)
	for range gens {
		g.Step()
	}
	p.addStats(g.Stats())
	return g
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
	}, ga.Options{Population: p.opts.Population}, p.rng, []ga.Matrix{curCoarse})
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

	// Each job the coarse pass gives GPUs gets a row of its own, which
	// compose adopts; the others share the zero row.
	rows := make(ga.Matrix, len(sub))
	for si := range sub {
		rows[si] = r.zero
		if totalK[si] > 0 {
			rows[si] = make([]int, nodes)
		}
	}
	p.lastStats.Racks = 0
	for rk := 0; rk < racks; rk++ {
		n0 := rk * size
		n1 := min(n0+size, nodes)
		// The rack's members are the jobs the coarse pass gave GPUs here.
		mem := r.mem[:0]
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
		r.mem = mem
		if len(mem) == 0 {
			continue
		}
		// Seeds: the current local segments, and the coarse shares packed
		// densely onto the rack's freest nodes.
		seedCur := make(ga.Matrix, len(mem))
		seedPack := ga.NewMatrix(len(mem), n1-n0)
		p.seed.reset(r.residual[n0:n1])
		for mi, c := range mem {
			seedCur[mi] = c.cur
			p.seed.take(seedPack[mi], coarse[c.si][rk])
		}
		best, _ := r.solveNodes(mem, n0, n1, []ga.Matrix{seedCur, seedPack}, refinePop, refineGens).Best()
		for mi, c := range mem {
			copy(rows[c.si][n0:n1], best[mi])
		}
		p.lastStats.Racks++
	}
	return rows
}
