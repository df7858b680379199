package sched

import (
	"repro/internal/core"
)

// Autoscaler decides cluster size for the cloud scenario of Sec. 4.2.2 and
// Sec. 5.3.3: a single large training job whose node count may change over
// time. DesiredNodes is consulted at each scheduling interval with the
// job's currently reported goodput model.
type Autoscaler interface {
	Name() string
	DesiredNodes(model core.Model, gpusPerNode int) int
}

// GoodputAutoscaler is Pollux's cloud auto-scaling policy: it provisions
// nodes so that cluster UTILITY (Eqn. 17 — the mean speedup per GPU) stays
// within [lowUtil, highUtil], using binary search under the assumption
// that utility decreases with cluster size. Because speedup depends on
// statistical efficiency, the desired size grows as the gradient noise
// scale grows, provisioning GPUs when large batches become effective.
type GoodputAutoscaler struct {
	MinNodes, MaxNodes int
}

// NewGoodputAutoscaler uses sensible defaults when bounds are zero.
func NewGoodputAutoscaler(minNodes, maxNodes int) *GoodputAutoscaler {
	if minNodes <= 0 {
		minNodes = 1
	}
	if maxNodes < minNodes {
		maxNodes = minNodes
	}
	return &GoodputAutoscaler{MinNodes: minNodes, MaxNodes: maxNodes}
}

func (a *GoodputAutoscaler) Name() string { return "pollux-goodput" }

// utility computes UTILITY for n nodes: SPEEDUP over the n·gpusPerNode
// allocation divided by total GPUs (Eqn. 17, single-job form).
func (a *GoodputAutoscaler) utility(model core.Model, n, gpusPerNode int) float64 {
	gpus := n * gpusPerNode
	if gpus == 0 {
		return 0
	}
	return model.Speedup(core.Placement{GPUs: gpus, Nodes: n}) / float64(gpus)
}

// DesiredNodes binary-searches for the cluster size whose utility is
// closest to utilTarget.
func (a *GoodputAutoscaler) DesiredNodes(model core.Model, gpusPerNode int) int {
	lo, hi := a.MinNodes, a.MaxNodes
	for lo < hi {
		mid := (lo + hi) / 2
		if a.utility(model, mid, gpusPerNode) >= utilTarget {
			// Utility still high: can afford more nodes.
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first size with utility < utilTarget (or MaxNodes); compare
	// with its predecessor for the closest fit.
	best := lo
	if lo > a.MinNodes {
		du := diff(a.utility(model, lo, gpusPerNode), utilTarget)
		dd := diff(a.utility(model, lo-1, gpusPerNode), utilTarget)
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
// Fraction of the maximum attainable throughput.
type ThroughputAutoscaler struct {
	MinNodes, MaxNodes int
	// Fraction of the max-cluster throughput considered "good enough";
	// default 0.9.
	Fraction float64
}

// NewThroughputAutoscaler applies defaults for zero fields.
func NewThroughputAutoscaler(minNodes, maxNodes int, fraction float64) *ThroughputAutoscaler {
	if minNodes <= 0 {
		minNodes = 1
	}
	if maxNodes < minNodes {
		maxNodes = minNodes
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 0.9
	}
	return &ThroughputAutoscaler{MinNodes: minNodes, MaxNodes: maxNodes, Fraction: fraction}
}

func (a *ThroughputAutoscaler) Name() string { return "or-etal-throughput" }

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

// DesiredNodes returns the smallest size reaching Fraction of the
// max-size throughput.
func (a *ThroughputAutoscaler) DesiredNodes(model core.Model, gpusPerNode int) int {
	max := bestThroughput(model, a.MaxNodes, gpusPerNode)
	if max <= 0 {
		return a.MinNodes
	}
	for n := a.MinNodes; n < a.MaxNodes; n++ {
		if bestThroughput(model, n, gpusPerNode) >= a.Fraction*max {
			return n
		}
	}
	return a.MaxNodes
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
