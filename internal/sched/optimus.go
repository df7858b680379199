package sched

import (
	"sort"

	"repro/internal/core"
	"repro/internal/ga"
)

// Optimus implements the only-resource-adaptive baseline (Sec. 2.3,
// Sec. 5.2 "Optimus+Oracle"): it predicts each job's remaining time from a
// throughput model and greedily assigns GPUs by marginal gain, but never
// changes a job's batch size. Per the paper's methodology it uses the
// same throughput model as Pollux (Sec. 3.2) — fitted online by the job's
// agent — rather than the original parameter-server model, and is given an
// oracle for the exact number of remaining iterations.
type Optimus struct {
	gpusPerNode int
	pack        packer
}

// NewOptimus creates the baseline. gpusPerNode is used to predict the
// node span of candidate GPU counts before placement.
func NewOptimus(gpusPerNode int) *Optimus {
	if gpusPerNode <= 0 {
		gpusPerNode = 4
	}
	return &Optimus{gpusPerNode: gpusPerNode}
}

func (o *Optimus) Name() string          { return "optimus" }
func (o *Optimus) AdaptsBatchSize() bool { return false }

// remaining predicts a job's remaining run time with g GPUs at its fixed
// batch size: oracle iterations times modeled iteration time.
func (o *Optimus) remaining(j JobView, g int) float64 {
	if g <= 0 {
		return inf
	}
	nodes := (g + o.gpusPerNode - 1) / o.gpusPerNode
	ti := j.Model.Params.TIter(core.Placement{GPUs: g, Nodes: nodes}, float64(j.UserBatch))
	return j.RemainingIters * ti
}

const inf = 1e18

// Schedule greedily allocates: every job first gets its minimum feasible
// GPU count (in submission order), then single GPUs go to whichever job's
// predicted remaining time improves the most, until GPUs run out or no
// job benefits.
func (o *Optimus) Schedule(v *ClusterView) ga.Matrix {
	n := len(v.Jobs)
	demands := make([]int, n)
	freeGPUs := v.TotalGPUs()

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return v.Jobs[order[a]].Submit < v.Jobs[order[b]].Submit
	})

	// Stage 1: minimum allocations so each job's fixed batch fits.
	for _, i := range order {
		min := v.Jobs[i].MinGPUs
		if min < 1 {
			min = 1
		}
		if freeGPUs >= min {
			demands[i] = min
			freeGPUs -= min
		}
	}

	// Stage 2: marginal-gain greedy.
	for freeGPUs > 0 {
		best, bestGain := -1, 0.0
		for i := range v.Jobs {
			if demands[i] == 0 {
				continue // could not even fit its minimum
			}
			gain := o.remaining(v.Jobs[i], demands[i]) - o.remaining(v.Jobs[i], demands[i]+1)
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		demands[best]++
		freeGPUs--
	}

	return o.pack.packAll(v, demands)
}
