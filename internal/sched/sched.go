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
	// Usage is the per-node sum of Current's rows when the backend keeps
	// that total anyway (the service's ledger and the simulator do); nil
	// otherwise. With it runtime.Step validates a result from the changed
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

// packJob places g GPUs for one job onto the nodes with the most free
// GPUs, minimizing the number of nodes spanned (the co-location preference
// shared by all three schedulers). It adds the placement to row (the
// job's all-zero row of the matrix being built) and takes it from free;
// when fewer than g GPUs are free in total it touches neither and
// reports false.
func packJob(row, free []int, g int) bool {
	total := 0
	for _, f := range free {
		total += f
	}
	if g <= 0 || total < g {
		return false
	}
	// Repeatedly take from the node with the most free GPUs.
	for g > 0 {
		best := 0
		for n, f := range free {
			if f > free[best] {
				best = n
			}
		}
		take := min(free[best], g)
		row[best] += take
		free[best] -= take
		g -= take
	}
	return true
}

// packer builds a baseline policy's matrix under the row rule of
// round.compose (incremental.go, Ownership): the row published for a job is
// the view's current row when the packing reproduces it, one fresh slice
// when it does not, and one shared all-zero row for a job that loses its
// GPUs. So a steady job costs the round no allocation and runtime.Step
// answers "did it change" by slice identity. The scratch lives on the
// policy value, which makes Schedule as non-reentrant as Pollux's.
type packer struct {
	free  []int // GPUs still unclaimed per node
	row   []int // the row being packed; never published
	zero  []int // published for jobs left without GPUs; never written
	order []int // packAll's job order
}

// reset starts a matrix on a cluster of the given capacity.
func (p *packer) reset(capacity []int) {
	if len(p.zero) != len(capacity) {
		p.free, p.row, p.zero = make([]int, len(capacity)), make([]int, len(capacity)), make([]int, len(capacity))
	}
	copy(p.free, capacity)
}

// place packs g GPUs for job i of the view with packJob and returns the
// row to publish for it.
func (p *packer) place(v *ClusterView, i, g int) []int {
	clear(p.row)
	packed := packJob(p.row, p.free, g)
	if i < len(v.Current) && slices.Equal(v.Current[i], p.row) {
		return v.Current[i]
	}
	if !packed {
		return p.zero
	}
	return slices.Clone(p.row)
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
