package core

import (
	"fmt"
	"math"

	"repro/internal/adascale"
	"repro/internal/opt"
)

// Efficiency returns EFFICIENCY_t(m) = (phi + m0)/(phi + m) (Eqn. 7): the
// training progress per example at batch size m relative to the initial
// batch size m0. For m >= m0 the result is in (0, 1]; training at m must
// process 1/E times as many examples as at m0 for equal progress.
func Efficiency(phi float64, m0, m int) float64 {
	if m0 <= 0 || m <= 0 {
		panic(fmt.Sprintf("core: non-positive batch size m0=%d m=%d", m0, m))
	}
	if math.IsInf(phi, 1) {
		return 1
	}
	if phi < 0 {
		phi = 0
	}
	return (phi + float64(m0)) / (phi + float64(m))
}

// Model is a fully specified GOODPUT function for one job at its current
// training progress: the fitted θsys, the current gradient noise scale,
// and the job's batch-size limits. It is the (θsys, φt, m0) triple of
// Sec. 4.1 plus the memory constraints needed to bound the batch size.
type Model struct {
	Params Params  // fitted θsys
	Phi    float64 // current gradient noise scale φt
	M0     int     // user-provided initial batch size

	// MaxBatchPerGPU is the largest per-GPU batch that fits in GPU
	// memory; the total batch at placement K is capped at K·MaxBatchPerGPU.
	MaxBatchPerGPU int
	// MaxBatchGlobal optionally caps the total batch size regardless of
	// GPU count (0 means no global cap). The paper's workloads sweep
	// batch sizes up to a per-model limit.
	MaxBatchGlobal int
}

// batchRange returns the feasible total batch range [lo, hi] for the
// placement, or ok=false when even m0 does not fit.
func (g Model) batchRange(pl Placement) (lo, hi int, ok bool) {
	if !pl.Valid() || g.M0 <= 0 || g.MaxBatchPerGPU <= 0 {
		return 0, 0, false
	}
	hi = pl.GPUs * g.MaxBatchPerGPU
	if g.MaxBatchGlobal > 0 && hi > g.MaxBatchGlobal {
		hi = g.MaxBatchGlobal
	}
	if hi < g.M0 {
		return 0, 0, false
	}
	return g.M0, hi, true
}

// Throughput exposes the modeled throughput for the placement and batch.
func (g Model) Throughput(pl Placement, m int) float64 {
	return g.Params.Throughput(pl, float64(m))
}

// Efficiency exposes the modeled statistical efficiency at batch size m.
func (g Model) Efficiency(m int) float64 {
	return Efficiency(g.Phi, g.M0, m)
}

// OptimalBatch returns the batch size m* maximizing goodput for the
// placement (Eqn. 13) and the goodput achieved, using golden-section
// search over the feasible range — GOODPUT(a, m) is unimodal in m. ok is
// false when the placement cannot fit even the initial batch size.
func (g Model) OptimalBatch(pl Placement) (m int, goodput float64, ok bool) {
	lo, hi, ok := g.batchRange(pl)
	if !ok {
		return 0, 0, false
	}
	m, goodput = opt.GoldenSectionMaxInt(func(b int) float64 {
		return g.Params.Throughput(pl, float64(b)) * Efficiency(g.Phi, g.M0, b)
	}, lo, hi)
	return m, goodput, true
}

// Speedup returns SPEEDUP(a) = max_m GOODPUT(a, m) / max_m GOODPUT(1, m)
// (Eqn. 15): the goodput improvement of the placement over a single GPU,
// each at its own optimal batch size. An infeasible placement yields 0.
// Allocating a single GPU always yields exactly 1.
func (g Model) Speedup(pl Placement) float64 {
	_, num, ok := g.OptimalBatch(pl)
	if !ok {
		return 0
	}
	_, den, ok := g.OptimalBatch(SingleGPU)
	if !ok || den <= 0 {
		return 0
	}
	return num / den
}

// OptimalLR returns the AdaScale learning rate for training at batch size
// m given the base rate eta0 the job was submitted with.
func (g Model) OptimalLR(eta0 float64, m int) float64 {
	return adascale.LearningRate(eta0, adascale.Gain(g.Phi, g.M0, m))
}
