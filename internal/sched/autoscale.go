package sched

import (
	"repro/internal/core"
)

// Autoscaler decides cluster size for the cloud scenario of Sec. 4.2.2 and
// Sec. 5.3.3: a single large training job whose node count may change over
// time. DesiredNodes is consulted at each scheduling interval with the
// job's currently reported goodput model and the run's node bounds, and
// returns a count within them.
type Autoscaler interface {
	DesiredNodes(model core.Model, gpusPerNode, minNodes, maxNodes int) int
}

// GoodputAutoscaler is Pollux's cloud auto-scaling policy: it provisions
// nodes so that cluster UTILITY (Eqn. 17 — the mean speedup per GPU) stays
// within [lowUtil, highUtil], using binary search under the assumption
// that utility decreases with cluster size. Because speedup depends on
// statistical efficiency, the desired size grows as the gradient noise
// scale grows, provisioning GPUs when large batches become effective.
type GoodputAutoscaler struct{}

// utility computes UTILITY for n nodes: SPEEDUP over the n·gpusPerNode
// allocation divided by total GPUs (Eqn. 17, single-job form).
func utility(model core.Model, n, gpusPerNode int) float64 {
	gpus := n * gpusPerNode
	if gpus == 0 {
		return 0
	}
	return model.Speedup(core.Placement{GPUs: gpus, Nodes: n}) / float64(gpus)
}

// DesiredNodes binary-searches for the cluster size whose utility is
// closest to utilTarget.
func (GoodputAutoscaler) DesiredNodes(model core.Model, gpusPerNode, minNodes, maxNodes int) int {
	lo, hi := minNodes, maxNodes
	for lo < hi {
		mid := (lo + hi) / 2
		if utility(model, mid, gpusPerNode) >= utilTarget {
			// Utility still high: can afford more nodes.
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first size with utility < utilTarget (or maxNodes); compare
	// with its predecessor for the closest fit.
	best := lo
	if lo > minNodes {
		du := diff(utility(model, lo, gpusPerNode), utilTarget)
		dd := diff(utility(model, lo-1, gpusPerNode), utilTarget)
		if dd < du {
			best = lo - 1
		}
	}
	return best
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// ThroughputAutoscaler is the Or et al. baseline (Sec. 5.3.3): it also
// adapts the batch size during training, but models job performance with
// system throughput only — equivalent to assuming perfect statistical
// efficiency at any batch size. Since throughput does not change with
// training progress, it scales out early and holds the size constant
// (Fig. 10a). It picks the smallest cluster achieving at least
// throughputFraction of the maximum attainable throughput.
type ThroughputAutoscaler struct{}

// bestThroughput is the throughput at n nodes with the
// throughput-maximizing batch size (ignoring efficiency).
func bestThroughput(model core.Model, n, gpusPerNode int) float64 {
	gpus := n * gpusPerNode
	pl := core.Placement{GPUs: gpus, Nodes: n}
	// Throughput is monotone in batch: the max feasible batch wins.
	m := gpus * model.MaxBatchPerGPU
	if model.MaxBatchGlobal > 0 && m > model.MaxBatchGlobal {
		m = model.MaxBatchGlobal
	}
	if m < model.M0 {
		return 0
	}
	return model.Throughput(pl, m)
}

// DesiredNodes returns the smallest size reaching throughputFraction of
// the max-size throughput.
func (ThroughputAutoscaler) DesiredNodes(model core.Model, gpusPerNode, minNodes, maxNodes int) int {
	best := bestThroughput(model, maxNodes, gpusPerNode)
	if best <= 0 {
		return minNodes
	}
	for n := minNodes; n < maxNodes; n++ {
		if bestThroughput(model, n, gpusPerNode) >= throughputFraction*best {
			return n
		}
	}
	return maxNodes
}

// ThroughputOptimalBatch is the batch the Or et al. baseline trains with:
// the throughput-maximizing (maximum feasible) batch size.
func ThroughputOptimalBatch(model core.Model, pl core.Placement) int {
	m := pl.GPUs * model.MaxBatchPerGPU
	if model.MaxBatchGlobal > 0 && m > model.MaxBatchGlobal {
		m = model.MaxBatchGlobal
	}
	if m < model.M0 {
		return model.M0
	}
	return m
}
