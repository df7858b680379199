package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

var refRack = RackParams{
	Params:        refParams,
	AlphaSyncRack: 0.20,
	BetaSyncRack:  0.010,
}

func TestRackTSyncTiers(t *testing.T) {
	// Single GPU: no sync.
	if ts := refRack.TSync(RackPlacement{GPUs: 1, Nodes: 1, Racks: 1}); ts != 0 {
		t.Errorf("single GPU sync = %v", ts)
	}
	// One node: local params, identical to the flat model.
	pl := RackPlacement{GPUs: 4, Nodes: 1, Racks: 1}
	//pollux:floateq-ok degenerate topology must reduce to the flat model bit-for-bit, not approximately
	if got, want := refRack.TSync(pl), refParams.TSync(pl.Flat()); got != want {
		t.Errorf("one-node sync = %v, want %v", got, want)
	}
	// Multi-node one rack: node params, identical to the flat model.
	pl = RackPlacement{GPUs: 8, Nodes: 2, Racks: 1}
	//pollux:floateq-ok degenerate topology must reduce to the flat model bit-for-bit, not approximately
	if got, want := refRack.TSync(pl), refParams.TSync(pl.Flat()); got != want {
		t.Errorf("one-rack sync = %v, want %v", got, want)
	}
	// Cross-rack: the rack pair, more expensive than within-rack here.
	cross := refRack.TSync(RackPlacement{GPUs: 8, Nodes: 2, Racks: 2})
	within := refRack.TSync(RackPlacement{GPUs: 8, Nodes: 2, Racks: 1})
	if cross <= within {
		t.Errorf("cross-rack sync %v not above within-rack %v", cross, within)
	}
	want := refRack.AlphaSyncRack + 6*refRack.BetaSyncRack
	if math.Abs(cross-want) > 1e-12 {
		t.Errorf("cross-rack sync = %v, want %v", cross, want)
	}
}

func TestRackThroughputDropsAcrossRacks(t *testing.T) {
	m := 2048.0
	within := refRack.Throughput(RackPlacement{GPUs: 16, Nodes: 4, Racks: 1}, m)
	across := refRack.Throughput(RackPlacement{GPUs: 16, Nodes: 4, Racks: 4}, m)
	if across >= within {
		t.Errorf("cross-rack throughput %v not below within-rack %v", across, within)
	}
}

func TestRackTIterBetweenMaxAndSum(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RackParams{
			Params:        randParams(rng),
			AlphaSyncRack: rng.Float64() * 0.5,
			BetaSyncRack:  rng.Float64() * 0.05,
		}
		nodes := 2 + rng.Intn(6)
		pl := RackPlacement{
			GPUs:  nodes * (1 + rng.Intn(4)),
			Nodes: nodes,
			Racks: 1 + rng.Intn(nodes),
		}
		m := float64(64 + rng.Intn(4096))
		tg := p.TGrad(m, pl.GPUs)
		ts := p.TSync(pl)
		ti := p.TIter(pl, m)
		return ti >= math.Max(tg, ts)-1e-9 && ti <= tg+ts+1e-9
	}
	if err := quick.Check(prop, testutil.QuickConfig(300)); err != nil {
		t.Error(err)
	}
}

func TestDeriveRackParams(t *testing.T) {
	rp := DeriveRackParams(refParams, 3)
	if rp.Params != refParams {
		t.Error("base θsys not preserved")
	}
	if math.Abs(rp.AlphaSyncRack-3*refParams.AlphaSyncNode) > 1e-15 ||
		math.Abs(rp.BetaSyncRack-3*refParams.BetaSyncNode) > 1e-15 {
		t.Errorf("rack pair = (%v, %v), want 3× the node pair", rp.AlphaSyncRack, rp.BetaSyncRack)
	}
	// factor 1 prices rack hops like node hops: TSync reduces to the
	// two-tier model for any span.
	free := DeriveRackParams(refParams, 1)
	pl := RackPlacement{GPUs: 16, Nodes: 4, Racks: 3}
	//pollux:floateq-ok factor-1 derivation must reduce to the flat model bit-for-bit
	if got, want := free.TSync(pl), refParams.TSync(pl.Flat()); got != want {
		t.Errorf("factor-1 cross-rack sync = %v, want flat %v", got, want)
	}
}

func TestOptimalBatchRack(t *testing.T) {
	g := Model{Params: refParams, Phi: 100, M0: 512, MaxBatchPerGPU: 256}
	rp := DeriveRackParams(refParams, 4)

	// One rack: identical to the flat search (TSync tiers coincide).
	flatM, flatG, ok1 := g.OptimalBatch(Placement{GPUs: 16, Nodes: 4})
	rackM, rackG, ok2 := g.OptimalBatchRack(rp, RackPlacement{GPUs: 16, Nodes: 4, Racks: 1})
	if !ok1 || !ok2 {
		t.Fatal("feasible placement reported infeasible")
	}
	//pollux:floateq-ok single-rack search must reduce to the flat search bit-for-bit
	if rackM != flatM || rackG != flatG {
		t.Errorf("one-rack optimum (%d, %v), want flat (%d, %v)", rackM, rackG, flatM, flatG)
	}

	// Spanning racks costs goodput at the optimum.
	_, crossG, ok := g.OptimalBatchRack(rp, RackPlacement{GPUs: 16, Nodes: 4, Racks: 4})
	if !ok {
		t.Fatal("cross-rack placement reported infeasible")
	}
	if crossG >= rackG {
		t.Errorf("cross-rack goodput %v not below within-rack %v", crossG, rackG)
	}

	// Infeasible: even m0 does not fit.
	if _, _, ok := g.OptimalBatchRack(rp, RackPlacement{GPUs: 1, Nodes: 1, Racks: 1}); ok {
		t.Error("m0=512 on one 256-batch GPU reported feasible")
	}
}
