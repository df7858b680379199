// Package sched implements the cluster-wide scheduling policies evaluated
// in the Pollux paper: PolluxSched itself (Sec. 4.2 — genetic-algorithm
// goodput optimization with job weights, restart penalties, and
// interference avoidance), and the two baselines it is compared against,
// Optimus+Oracle (only-resource-adaptive, marginal-gain greedy on a
// throughput model with oracle remaining work) and Tiresias+TunedJobs
// (non-resource-adaptive, discretized least-attained-service with
// user-fixed GPU counts). The cloud autoscaling policies of Sec. 4.2.2 and
// Sec. 5.3.3 live in autoscale.go.
package sched

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/ga"
)

// JobView is the scheduler-visible state of one pending or running job.
// Which fields a policy may consult depends on the policy: Pollux uses the
// reported goodput Model and GPUCap; Optimus uses the Model's throughput
// parameters, MinGPUs, and the RemainingIters oracle; Tiresias uses only
// UserGPUs, GPUTime, and Submit.
type JobView struct {
	ID     int
	Submit float64

	// Tenant is the owning tenant for multi-tenant traces ("" otherwise)
	// and Deadline the absolute SLO deadline in seconds (0 = none). They
	// are carried for the admit front end's priority stage and per-tenant
	// accounting; the scheduling policies themselves do not consult them.
	Tenant   string
	Deadline float64

	// Model is the goodput function reported by the job's PolluxAgent
	// (fitted θsys, current φ, m0, batch limits).
	Model core.Model
	// GPUCap is the exploration cap (at most 2x lifetime max GPUs).
	GPUCap int

	// UserGPUs and UserBatch are the job's fixed submission-time
	// configuration, used by the baseline schedulers.
	UserGPUs  int
	UserBatch int
	// MinGPUs is the fewest GPUs whose combined memory fits UserBatch.
	MinGPUs int
	// RemainingIters is the oracle iterations-to-completion at UserBatch
	// (Sec. 5.2: Optimus+Oracle is given exact remaining work).
	RemainingIters float64

	// GPUTime is the total GPU-seconds consumed so far (attained
	// service for Tiresias; weight decay input for Pollux).
	GPUTime float64
}

// ClusterView is a snapshot handed to a policy at each scheduling
// interval, valid for that Schedule call: a backend may refill the same
// view next round, so a policy keeps rows (see Current), not the view.
type ClusterView struct {
	Now      float64
	Capacity []int // GPUs per node
	Jobs     []JobView
	// Current is the allocation matrix in effect, with rows aligned to
	// Jobs (used for restart penalties and placement stability). Its rows
	// are immutable values shared with whoever built the view — a backend
	// hands out the slices it holds for its jobs — so a policy may read
	// them, keep them and return them, and must never write one. The
	// backend in turn never writes a row after handing it out.
	Current ga.Matrix
	// Usage is the per-node sum of Current's rows: the backend's ledger
	// totals, with which runtime.Step validates a result from the changed
	// rows alone. Read-only, like the rows.
	Usage []int
}

// TotalGPUs returns the cluster GPU count.
func (v *ClusterView) TotalGPUs() int {
	total := 0
	for _, c := range v.Capacity {
		total += c
	}
	return total
}

// Policy computes a new allocation matrix (rows aligned with view.Jobs) at
// each scheduling interval.
type Policy interface {
	Name() string
	// AdaptsBatchSize reports whether jobs under this policy re-tune
	// their batch size during training (true only for Pollux).
	AdaptsBatchSize() bool
	// ReadsModel reports whether Schedule reads JobView.Model. A backend
	// may leave the model zero when false, and skip the fits behind it
	// unless AdaptsBatchSize: batch tuning reads the fit on its own.
	ReadsModel() bool
	// Schedule returns one row per job of the view. Rows are immutable
	// once returned: the caller installs the changed ones by reference, so
	// the policy may keep a returned row but must never write it again (a
	// change is a new slice). Returning v.Current[i] itself says "job i
	// stays", and costs the round nothing for that job. A row cut from a
	// larger backing array keeps that array alive while it is installed.
	Schedule(v *ClusterView) ga.Matrix
}

// PlacementOf summarizes an allocation row.
func PlacementOf(row []int) core.Placement {
	k, n := 0, 0
	for _, g := range row {
		k += g
		if g > 0 {
			n++
		}
	}
	return core.Placement{GPUs: k, Nodes: n}
}

// packer builds a baseline policy's matrix under the row rule of
// round.compose (incremental.go, Ownership): the row published for a job is
// the view's current row when the packing reproduces it, one fresh slice
// when it does not, and one shared all-zero row for a job that loses its
// GPUs. So a steady job costs the round no allocation and runtime.Step
// answers "did it change" by slice identity. The scratch lives on the
// policy value, which makes Schedule as non-reentrant as Pollux's.
//
// A job is packed onto the nodes with the most free GPUs, lowest index on
// a tie, which spans the fewest nodes (the co-location preference shared
// by all three schedulers). The free nodes are kept bucketed by free
// count, so taking a node costs a word scan of one level, and a job costs
// time in the nodes it takes, not in the cluster: a job that does not fit
// is refused by the running total at once.
type packer struct {
	free  []int // GPUs still unclaimed per node
	total int   // sum of free
	// level holds one bitset of nodes per free count f >= 1, words uint64s
	// each, at level[(f-1)*words:]; count[f-1] is its population and top
	// the highest f that may be populated.
	level []uint64
	count []int
	words int
	top   int

	row  []int // the row being packed; never published
	took []int // the nodes take wrote to row since the last place
	zero []int // published for jobs left without GPUs; never written
	// seenZero is the last view row found all zero. Rows are never written
	// once handed out (ClusterView.Current), so it is all zero still, and a
	// queued job whose row is it or zero costs a pointer compare.
	seenZero []int
	order    []int // the job order of packAll and Tiresias.Schedule
}

// reset starts a matrix on a cluster of the given free capacity.
func (p *packer) reset(capacity []int) {
	p.free = append(p.free[:0], capacity...)
	p.took = p.took[:0]
	p.total, p.top, p.words = 0, 0, (len(capacity)+63)/64
	for _, f := range capacity {
		p.total += f
		p.top = max(p.top, f)
	}
	p.level = resize(p.level, p.top*p.words)
	clear(p.level)
	p.count = resize(p.count, p.top)
	clear(p.count)
	for node, f := range capacity {
		if f > 0 {
			p.level[(f-1)*p.words+node/64] |= 1 << (node % 64)
			p.count[f-1]++
		}
	}
}

// take adds g GPUs to row (all zero on the nodes with free GPUs) from the
// nodes with the most free GPUs and takes them from free. When fewer than
// g are free in total, or g <= 0, it touches neither and reports false.
func (p *packer) take(row []int, g int) bool {
	if g <= 0 || p.total < g {
		return false
	}
	p.total -= g
	for g > 0 {
		for p.count[p.top-1] == 0 {
			p.top--
		}
		f := p.top
		lv := p.level[(f-1)*p.words : f*p.words]
		w := 0
		for lv[w] == 0 {
			w++
		}
		node := w*64 + bits.TrailingZeros64(lv[w])
		lv[w] &^= 1 << (node % 64)
		p.count[f-1]--
		t := min(f, g)
		if rest := f - t; rest > 0 {
			p.level[(rest-1)*p.words+w] |= 1 << (node % 64)
			p.count[rest-1]++
		}
		row[node] += t
		p.free[node] -= t
		p.took = append(p.took, node)
		g -= t
	}
	return true
}

// place packs g GPUs for job i of the view and returns the row to publish
// for it.
func (p *packer) place(v *ClusterView, i, g int) []int {
	if n := len(p.free); len(p.row) != n {
		p.row, p.zero, p.seenZero = make([]int, n), make([]int, n), nil
	}
	if !p.take(p.row, g) {
		return p.queued(v, i)
	}
	var out []int
	if i < len(v.Current) && slices.Equal(v.Current[i], p.row) {
		out = v.Current[i]
	} else {
		out = slices.Clone(p.row)
	}
	for _, n := range p.took {
		p.row[n] = 0
	}
	p.took = p.took[:0]
	return out
}

// queued returns the row to publish for job i of the view when it gets no
// GPUs: its current row when that is all zero, the shared zero row when not.
func (p *packer) queued(v *ClusterView, i int) []int {
	if i >= len(v.Current) || len(v.Current[i]) != len(p.zero) {
		return p.zero
	}
	cur := v.Current[i]
	if ga.SameRow(cur, p.zero) || ga.SameRow(cur, p.seenZero) {
		return cur
	}
	for _, g := range cur {
		if g != 0 {
			return p.zero
		}
	}
	p.seenZero = cur
	return cur
}

// resize returns s at length n, on its own array when that is large
// enough; the cells hold whatever they held.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// packAll builds an allocation matrix by packing per-job GPU counts in
// descending size order (large jobs first reduces fragmentation and node
// spread). demands maps job index to GPU count; jobs with zero demand get
// empty rows.
func (p *packer) packAll(v *ClusterView, demands []int) ga.Matrix {
	p.reset(v.Capacity)
	m := make(ga.Matrix, len(demands))
	p.order = p.order[:0]
	for i := range demands {
		p.order = append(p.order, i)
	}
	slices.SortStableFunc(p.order, func(a, b int) int { return cmp.Compare(demands[b], demands[a]) })
	for _, j := range p.order {
		m[j] = p.place(v, j, demands[j])
	}
	return m
}
