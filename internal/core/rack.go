package core

import (
	"math"

	"repro/internal/opt"
)

// This file implements the rack-locality extension the paper sketches in
// Sec. 3.2: "our model for Tsync can be extended to account for rack-level
// locality by adding a third pair of parameters." RackParams adds that
// third (alpha, beta) pair, and RackPlacement adds the rack span, giving a
// three-tier synchronization cost: co-located on one node, within one
// rack, or across racks.

// RackPlacement extends Placement with the number of racks the allocation
// spans.
type RackPlacement struct {
	GPUs  int
	Nodes int
	Racks int
}

// Flat drops rack information, mapping onto the paper's two-tier model.
func (p RackPlacement) Flat() Placement {
	return Placement{GPUs: p.GPUs, Nodes: p.Nodes}
}

// RackParams is θsys extended with cross-rack synchronization parameters.
type RackParams struct {
	Params
	AlphaSyncRack float64 // constant sync time when spanning racks (s)
	BetaSyncRack  float64 // per-extra-replica retrogression across racks (s)
}

// TSync returns the three-tier synchronization time: zero for one GPU,
// the local pair on one node, the node pair within one rack, and the rack
// pair across racks (Eqn. 10 plus the paper's suggested third case).
func (p RackParams) TSync(pl RackPlacement) float64 {
	switch {
	case pl.GPUs <= 1:
		return 0
	case pl.Nodes == 1:
		return p.AlphaSyncLocal + p.BetaSyncLocal*float64(pl.GPUs-2)
	case pl.Racks <= 1:
		return p.AlphaSyncNode + p.BetaSyncNode*float64(pl.GPUs-2)
	default:
		return p.AlphaSyncRack + p.BetaSyncRack*float64(pl.GPUs-2)
	}
}

// TIter combines TGrad and the three-tier TSync with the γ overlap model
// (Eqn. 11).
func (p RackParams) TIter(pl RackPlacement, m float64) float64 {
	tg := p.TGrad(m, pl.GPUs)
	ts := p.TSync(pl)
	if ts == 0 {
		return tg
	}
	if tg == 0 {
		return ts
	}
	g := p.Gamma
	if g < 1 {
		g = 1
	}
	hi, lo := tg, ts
	if lo > hi {
		hi, lo = lo, hi
	}
	return hi * math.Pow(1+math.Pow(lo/hi, g), 1/g)
}

// Throughput returns examples/second under the rack-aware model.
func (p RackParams) Throughput(pl RackPlacement, m float64) float64 {
	ti := p.TIter(pl, m)
	if ti <= 0 {
		return 0
	}
	return m / ti
}

// DeriveRackParams builds a rack-aware θsys from a fitted two-tier θsys
// by scaling the node-tier synchronization pair: cross-rack all-reduce
// hops are factor× the intra-rack cost. Agents fit only the paper's
// 7-parameter model, so the hierarchical scheduler uses this derivation
// to price rack spans without changing the profiling protocol; factor 1
// makes racks free and reduces TSync to the two-tier model.
func DeriveRackParams(p Params, factor float64) RackParams {
	return RackParams{
		Params:        p,
		AlphaSyncRack: p.AlphaSyncNode * factor,
		BetaSyncRack:  p.BetaSyncNode * factor,
	}
}

// OptimalBatchRack is OptimalBatch under the three-tier rack model: the
// total batch maximizing THROUGHPUT(rp, pl, m) × EFFICIENCY_t(m) over the
// feasible range, by the same golden-section search. rp supplies the
// throughput model (its embedded Params supersede g.Params); g supplies
// φt, m0, and the memory caps. ok is false when the placement cannot fit
// even the initial batch size.
func (g Model) OptimalBatchRack(rp RackParams, pl RackPlacement) (m int, goodput float64, ok bool) {
	lo, hi, ok := g.batchRange(pl.Flat())
	if !ok {
		return 0, 0, false
	}
	m, goodput = opt.GoldenSectionMaxInt(func(b int) float64 {
		return rp.Throughput(pl, float64(b)) * Efficiency(g.Phi, g.M0, b)
	}, lo, hi)
	return m, goodput, true
}
