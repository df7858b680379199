package sched

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ga"
)

// PolluxOptions tunes PolluxSched. Zero values take the paper's defaults
// (Sec. 5.1): 100 generations over a population of 100 each interval and
// interference avoidance enabled; the restart penalty and the GPU-time
// threshold are the constants below.
type PolluxOptions struct {
	Population  int
	Generations int
	// Lambda is the decay exponent of the Eqn. 16 job weights beyond
	// gpuTimeThres; 0 (the default) disables weighting entirely (all
	// weights 1).
	Lambda float64
	// DisableInterferenceAvoidance turns off the Sec. 4.2.1 constraint
	// (used by the Fig. 9 ablation).
	DisableInterferenceAvoidance bool

	// Incremental enables dirty-set scheduling rounds: only jobs whose
	// fitted model, phase, or demand changed since the last committed
	// matrix — plus their placement neighbors — are re-placed; clean rows
	// carry forward verbatim. Off by default: the paper re-optimizes every
	// job every interval.
	Incremental bool
	// FullEvery forces a full re-optimization every FullEvery-th
	// incremental round so incremental never drifts from the global
	// optimum. Zero takes the default of 10; negative means never force
	// one (for experiments isolating the incremental path).
	FullEvery int
	// RackSize, when > 0, enables hierarchical decomposition for
	// clusters of at least two racks: a coarse GA assigns jobs to racks
	// of RackSize contiguous nodes (priced by the Sec. 3.2 rack-locality
	// extension), then small per-rack GAs refine node placements,
	// cutting the per-round search space from O(nodes) to
	// O(racks) + O(nodes/rack). Without Incremental every round is a full
	// hierarchical one.
	RackSize int
}

func (o *PolluxOptions) defaults() {
	if o.Population <= 0 {
		o.Population = 100
	}
	if o.Generations <= 0 {
		o.Generations = 100
	}
	if o.FullEvery == 0 {
		o.FullEvery = 10
	} else if o.FullEvery < 0 {
		o.FullEvery = -1 // never force a full round
	}
}

// The paper's fixed scheduling parameters (Sec. 4.2.1, 4.2.2, 5.1).
const (
	// restartPenalty is what a re-allocation costs a running job's
	// fitness term (Eqn. 14).
	restartPenalty float64 = 0.25
	// gpuTimeThres is the attained service, in GPU-seconds, beyond which a
	// job's weight decays (Eqn. 16): 4 GPU-hours.
	gpuTimeThres float64 = 4 * 3600
	// lowUtil and highUtil are the band Sec. 4.2.2 keeps UTILITY (Eqn. 17)
	// within; GoodputAutoscaler steers towards its midpoint, utilTarget.
	lowUtil    float64 = 0.55
	highUtil   float64 = 0.75
	utilTarget         = (lowUtil + highUtil) / 2
	// throughputFraction is the share of the largest cluster's throughput
	// ThroughputAutoscaler (Or et al.) considers good enough.
	throughputFraction float64 = 0.9
)

// Fixed settings of incremental and hierarchical rounds. No caller ever
// chose other values, so they are not options.
const (
	// queuedPerRound caps how many clean queued (zero-allocation) jobs
	// join each incremental round's dirty set, in snapshot order, to
	// compete for the capacity the round frees.
	queuedPerRound = 64
	// rackPenalty scales the fitted node-tier sync parameters into the
	// derived cross-rack tier (core.DeriveRackParams): a cross-rack hop
	// costs this many intra-rack ones.
	rackPenalty = 2
	// refinePop and refineGens size the per-rack refinement GAs. The
	// coarse rack pass runs at the main Population/Generations: its
	// matrices are racks wide, not nodes, so it is cheap regardless.
	refinePop  = 16
	refineGens = 10
)

// Pollux is the co-adaptive scheduler (Sec. 4.2). It keeps its GA
// population between scheduling intervals to bootstrap the next
// optimization, and one record per job (see jobRec) so rows survive
// arrivals and departures and each job's memoized SPEEDUP table carries
// across intervals until the job's reported model changes.
type Pollux struct {
	opts PolluxOptions
	// src is the counting source behind rng: it draws exactly like the
	// stock math/rand source but exposes a serializable (seed, draws)
	// state, which is what makes Snapshot/Restore possible without
	// perturbing any fixed-seed trace.
	src *detrand.Source
	rng *rand.Rand

	// Outside the whole-population carry, prevPop[0] is the committed
	// matrix that inc.rows also names (see incremental.go).
	prevPop []ga.Matrix
	// recs holds the record of every job in the last round that solved
	// anything, in that round's view order, which is the row order of
	// prevPop's matrices and of inc.rows: recs[i].pos == i. byID finds a
	// record where a view's order differs from it (see newRound).
	recs []*jobRec
	byID map[int]*jobRec

	// inc is the dirty-set state for Incremental mode (see
	// incremental.go); nil until the first incremental round solves.
	inc *incState
	// sinceFull counts incremental rounds since the last full
	// re-optimization, driving the FullEvery cadence.
	sinceFull int
	// lastStats describes the most recent Schedule call (see RoundStats).
	lastStats RoundStats
	// seed packs each rack's dense seed in a rack round, reset to the
	// rack's residual capacity; scratch, kept from round to round.
	seed packer
	// buf is the one round every Schedule call refills (see newRound).
	buf round
}

// RoundStats summarizes the work done by one Schedule call; experiments
// and benchmarks read it through LastRoundStats to report per-round
// fitness work and dirty-set sizes.
type RoundStats struct {
	Jobs int // jobs in the view
	Sub  int // jobs re-placed (== Jobs on a full round)
	// Racks is the number of racks refined (0 when hierarchy is off).
	Racks int
	// Full reports a full re-optimization (the only kind in default
	// mode); Skipped reports an incremental round with an empty dirty
	// set, which returned the current allocation without running any GA.
	Full    bool
	Skipped bool
	// FitnessCalls and FitnessCells total the GA fitness work across
	// every pass of the round (coarse, refinement, and flat); cells are
	// calls weighted by the scored matrix area (see ga.Stats). A call is
	// a member scored: an offspring that copies a member and takes its
	// score without calling the fitness still counts.
	FitnessCalls int64
	FitnessCells int64
}

// LastRoundStats returns the stats of the most recent Schedule call.
func (p *Pollux) LastRoundStats() RoundStats { return p.lastStats }

// NewPollux creates a PolluxSched instance with its own deterministic RNG.
func NewPollux(opts PolluxOptions, seed int64) *Pollux {
	opts.defaults()
	src := detrand.NewSource(seed)
	return &Pollux{
		opts: opts,
		src:  src,
		rng:  rand.New(src),
		byID: make(map[int]*jobRec),
	}
}

func (p *Pollux) Name() string          { return "pollux" }
func (p *Pollux) AdaptsBatchSize() bool { return true }
func (p *Pollux) ReadsModel() bool      { return true }

// speedupTable lazily memoizes SPEEDUP_j(K, N) per job. Fitness evaluation
// touches the same few placements thousands of times per interval; the
// underlying golden-section searches are far too slow to repeat. Cells are
// atomic float64 bit patterns so concurrent fitness workers can fill the
// table race-free: the model is a pure function, so two workers computing
// the same cell store bit-identical values and either store may win.
//
// The cell array is triangular, not dense: K only goes up to the job's
// exploration cap (placements beyond it score zero without a lookup), and
// a K-GPU row only needs N ≤ min(K, nodes) columns (more nodes than GPUs
// is not a valid placement). The former dense (totalGPUs+1)×(nodes+1)
// layout cost ~8 MB per job at 512 nodes — ~80 GB across a 10k-job
// backlog — where the triangular one is a few KB.
type speedupTable struct {
	model  core.Model
	gpuCap int
	denom  float64 // max_m GOODPUT(1, m)
	cells  []uint64
	offs   []int // offs[k] = index of cell (k, 0); row width min(k, nodes)+1
	nodes  int
	maxK   int
	kCap   int // min(maxK, gpuCap): the largest K with a row

	// rackCells is the cross-rack layer used by the hierarchical coarse
	// pass, indexed like cells; nil until ensureRack. One layer covers
	// every multi-rack span because the derived three-tier TSync does not
	// depend on how many racks are crossed, only whether more than one is.
	rackCells  []uint64
	rackParams core.RackParams
	// rackSpare is the array of a layer reset dropped, for ensureRack to
	// reuse; nil otherwise.
	rackSpare []uint64
}

// unsetCell marks a cell not yet computed. Speedups are finite and
// non-negative, so the bit pattern of -1 can never be a real value.
var unsetCell = math.Float64bits(-1)

func newSpeedupTable(model core.Model, gpuCap, maxK, nodes int) *speedupTable {
	t := &speedupTable{gpuCap: gpuCap, nodes: nodes, maxK: maxK}
	t.kCap = min(maxK, gpuCap)
	if t.kCap < 0 {
		t.kCap = 0
	}
	t.offs = make([]int, t.kCap+1)
	total := 0
	for k := 0; k <= t.kCap; k++ {
		t.offs[k] = total
		total += min(k, nodes) + 1
	}
	t.cells = make([]uint64, total)
	t.reset(model)
	return t
}

// reset makes t the table newSpeedupTable would build for the model at
// t's dimensions, in place: every cell unset, the denominator the model's,
// and no cross-rack layer. The layer's array stays in rackSpare for
// ensureRack to fill again, so a refit job costs no allocation.
func (t *speedupTable) reset(model core.Model) {
	t.model, t.denom = model, 0
	for i := range t.cells {
		t.cells[i] = unsetCell
	}
	if _, d, ok := model.OptimalBatch(core.SingleGPU); ok {
		t.denom = d
	}
	if t.rackCells != nil {
		t.rackSpare, t.rackCells, t.rackParams = t.rackCells, nil, core.RackParams{}
	}
}

// ensureRack allocates the cross-rack layer and the derived rack-aware
// θsys before the coarse pass fans fitness workers out; it must be called
// serially (the layer itself is then filled with the same atomic
// protocol as cells). rackPenalty is a constant, so an existing layer is
// always current.
func (t *speedupTable) ensureRack() {
	if t.rackCells != nil {
		return
	}
	t.rackParams = core.DeriveRackParams(t.model.Params, rackPenalty)
	t.rackCells, t.rackSpare = t.rackSpare, nil
	if t.rackCells == nil {
		t.rackCells = make([]uint64, len(t.cells))
	}
	for i := range t.rackCells {
		t.rackCells[i] = unsetCell
	}
}

// Speedup returns SPEEDUP for (K GPUs, N nodes) on one rack.
func (t *speedupTable) Speedup(k, n int) float64 { return t.SpeedupRack(k, n, 1) }

// SpeedupRack returns SPEEDUP for K GPUs on N nodes spanning the given
// number of racks, honoring the exploration cap: allocations beyond the
// cap score zero, which makes them strictly worse than pausing plus
// reallocating those GPUs elsewhere. Placements with more nodes than GPUs
// or more racks than nodes are invalid and likewise score zero. racks <= 1
// reads the two-tier cells; ensureRack must have been called before any
// multi-rack lookup. It is safe for concurrent use.
func (t *speedupTable) SpeedupRack(k, n, racks int) float64 {
	if k <= 0 || t.denom <= 0 {
		return 0
	}
	if k > t.kCap || n > t.nodes || n > k || (racks > 1 && racks > n) {
		return 0
	}
	cells := t.cells
	if racks > 1 {
		cells = t.rackCells
	}
	idx := t.offs[k] + n
	if bits := atomic.LoadUint64(&cells[idx]); bits != unsetCell {
		return math.Float64frombits(bits)
	}
	var num float64
	var ok bool
	if racks > 1 {
		// Racks: 2 stands in for any multi-rack span — the derived TSync
		// tier is the same for all of them (see rackCells).
		_, num, ok = t.model.OptimalBatchRack(t.rackParams, core.RackPlacement{GPUs: k, Nodes: n, Racks: 2})
	} else {
		_, num, ok = t.model.OptimalBatch(core.Placement{GPUs: k, Nodes: n})
	}
	v := 0.0
	if ok {
		v = num / t.denom
	}
	atomic.StoreUint64(&cells[idx], math.Float64bits(v))
	return v
}

// cachedTable returns the job's cross-round speedup table, reusing the
// one its record holds (with every cell already computed for the
// placements the GA visited) when the job's reported model, exploration
// cap, and table dimensions are unchanged. A changed model — an agent
// refit, a noise-scale update — resets the table in place, and a change of
// dimensions (exploration cap, cluster size) builds a new one; either way
// every cell is recomputed from the current model. Phi is part of the
// model, so a job actively making progress (whose noise scale moves every
// agent round) resets each interval; the cache pays off for paused and
// queued jobs — exactly the rows that pile up when the cluster is
// backlogged, which is when the GA is most expensive. Only a round that
// re-places the job asks: the table is a pure function of its arguments,
// so when it is built changes no value.
func (rec *jobRec) cachedTable(j *JobView, maxK, nodes int) *speedupTable {
	switch t := rec.table; {
	case t == nil || t.gpuCap != j.GPUCap || t.maxK != maxK || t.nodes != nodes:
		rec.table = newSpeedupTable(j.Model, j.GPUCap, maxK, nodes)
	case t.model != j.Model:
		t.reset(j.Model)
	}
	return rec.table
}

// Schedule computes the round's allocation matrix (Eqn. 14). Every
// configuration takes this one path (see incremental.go): pick the jobs to
// re-place, solve for them against what the others leave free, keep what
// the next round needs. The default re-places every job every round.
func (p *Pollux) Schedule(v *ClusterView) ga.Matrix {
	nJobs := len(v.Jobs)
	p.lastStats = RoundStats{Jobs: nJobs, Sub: nJobs, Full: true}
	if nJobs == 0 {
		p.prevPop, p.recs, p.inc = nil, nil, nil
		clear(p.byID)
		return ga.NewMatrix(0, len(v.Capacity))
	}

	r := p.newRound(v)
	defer r.release()
	sub := r.dirtySet()
	var out ga.Matrix
	if len(sub) == 0 {
		// Nothing changed anywhere: carry the allocation forward without
		// running any GA, as the view's own rows. The committed state
		// already describes it.
		out = slices.Clone(v.Current)
	} else {
		// It takes at least two racks to decompose.
		racks := p.opts.RackSize > 0 && len(v.Capacity) >= 2*p.opts.RackSize
		out = r.solve(sub, racks)
		// A nil result failed the defensive feasibility check: widen to
		// every job, then to a single rack, whose result is repaired GA
		// output and needs no check.
		if out == nil && len(sub) < nJobs {
			sub = r.allJobs()
			out = r.solve(sub, racks)
		}
		if out == nil {
			out = r.solve(sub, false)
		}
	}
	p.lastStats.Sub = len(sub)
	p.lastStats.Full = len(sub) == nJobs
	p.lastStats.Skipped = len(sub) == 0
	if p.lastStats.Full {
		p.sinceFull = 0
	} else {
		p.sinceFull++
	}
	return out
}

// addStats folds one GA's fitness-work counters into the round stats.
func (p *Pollux) addStats(st ga.Stats) {
	p.lastStats.FitnessCalls += st.FitnessCalls
	p.lastStats.FitnessCells += st.CellsScored
}

// weight implements Eqn. 16: w_j = min(1, thres/gputime)^λ.
func (p *Pollux) weight(gpuTime float64) float64 {
	if p.opts.Lambda == 0 || gpuTime <= gpuTimeThres {
		return 1
	}
	return math.Pow(gpuTimeThres/gpuTime, p.opts.Lambda)
}
