package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// refParams is a plausible θsys used across tests: ~50ms constant grad
// time, 0.4ms/example, small local sync, larger cross-node sync.
var refParams = Params{
	AlphaGrad:      0.05,
	BetaGrad:       0.0004,
	AlphaSyncLocal: 0.02,
	BetaSyncLocal:  0.002,
	AlphaSyncNode:  0.08,
	BetaSyncNode:   0.005,
	Gamma:          2.5,
}

func TestPlacementValid(t *testing.T) {
	cases := []struct {
		pl   Placement
		want bool
	}{
		{Placement{1, 1}, true},
		{Placement{4, 1}, true},
		{Placement{4, 4}, true},
		{Placement{4, 5}, false}, // more nodes than GPUs
		{Placement{0, 1}, false},
		{Placement{1, 0}, false},
		{Placement{-1, -1}, false},
	}
	for _, c := range cases {
		if got := c.pl.Valid(); got != c.want {
			t.Errorf("%v.Valid() = %v, want %v", c.pl, got, c.want)
		}
	}
}

func TestParamsVectorRoundTrip(t *testing.T) {
	v := refParams.Vector()
	if len(v) != 7 {
		t.Fatalf("vector length = %d, want 7", len(v))
	}
	back := ParamsFromVector(v)
	if back != refParams {
		t.Errorf("round trip mismatch: %+v != %+v", back, refParams)
	}
}

func TestParamsFromVectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ParamsFromVector(short) did not panic")
		}
	}()
	ParamsFromVector([]float64{1, 2, 3})
}

func TestTGradScalesWithLocalBatch(t *testing.T) {
	// Doubling GPUs at fixed m halves the per-GPU batch: Tgrad shrinks
	// toward AlphaGrad.
	t1 := refParams.TGrad(1024, 1)
	t2 := refParams.TGrad(1024, 2)
	t4 := refParams.TGrad(1024, 4)
	if !(t1 > t2 && t2 > t4 && t4 > refParams.AlphaGrad) {
		t.Errorf("TGrad not decreasing in K: %v %v %v", t1, t2, t4)
	}
	want := refParams.AlphaGrad + refParams.BetaGrad*1024/4
	if math.Abs(t4-want) > 1e-12 {
		t.Errorf("TGrad(1024, 4) = %v, want %v", t4, want)
	}
}

func TestTSyncCases(t *testing.T) {
	if ts := refParams.TSync(Placement{1, 1}); ts != 0 {
		t.Errorf("TSync single GPU = %v, want 0", ts)
	}
	// 2 GPUs on one node: exactly αl (K-2 = 0).
	if ts := refParams.TSync(Placement{2, 1}); math.Abs(ts-refParams.AlphaSyncLocal) > 1e-12 {
		t.Errorf("TSync(2,1) = %v, want αl = %v", ts, refParams.AlphaSyncLocal)
	}
	// 4 GPUs on one node: αl + 2βl.
	want := refParams.AlphaSyncLocal + 2*refParams.BetaSyncLocal
	if ts := refParams.TSync(Placement{4, 1}); math.Abs(ts-want) > 1e-12 {
		t.Errorf("TSync(4,1) = %v, want %v", ts, want)
	}
	// Cross-node placement uses node params and costs more here.
	local := refParams.TSync(Placement{4, 1})
	multi := refParams.TSync(Placement{4, 2})
	if multi <= local {
		t.Errorf("cross-node sync %v should exceed local %v for these params", multi, local)
	}
	wantMulti := refParams.AlphaSyncNode + 2*refParams.BetaSyncNode
	if math.Abs(multi-wantMulti) > 1e-12 {
		t.Errorf("TSync(4,2) = %v, want %v", multi, wantMulti)
	}
}

func TestTIterGammaLimits(t *testing.T) {
	pl := Placement{8, 2}
	m := 2048.0
	pSum := refParams
	pSum.Gamma = 1
	tg := pSum.TGrad(m, pl.GPUs)
	ts := pSum.TSync(pl)
	if got := pSum.TIter(pl, m); math.Abs(got-(tg+ts)) > 1e-9 {
		t.Errorf("γ=1: TIter = %v, want Tgrad+Tsync = %v", got, tg+ts)
	}
	pMax := refParams
	pMax.Gamma = 1000
	if got := pMax.TIter(pl, m); math.Abs(got-math.Max(tg, ts)) > 1e-6 {
		t.Errorf("γ→∞: TIter = %v, want max = %v", got, math.Max(tg, ts))
	}
}

func TestTIterBetweenMaxAndSum(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randParams(rng)
		pl := randPlacement(rng, 16, 4)
		m := float64(32 + rng.Intn(8192))
		tg := p.TGrad(m, pl.GPUs)
		ts := p.TSync(pl)
		ti := p.TIter(pl, m)
		lo := math.Max(tg, ts)
		hi := tg + ts
		return ti >= lo-1e-9 && ti <= hi+1e-9
	}
	if err := quick.Check(prop, testutil.QuickConfig(500)); err != nil {
		t.Error(err)
	}
}

func TestTIterMonotoneInGamma(t *testing.T) {
	// Larger γ means more overlap, so TIter must not increase.
	pl := Placement{8, 2}
	m := 2048.0
	prev := math.Inf(1)
	for g := 1.0; g <= 10; g += 0.5 {
		p := refParams
		p.Gamma = g
		ti := p.TIter(pl, m)
		if ti > prev+1e-12 {
			t.Errorf("TIter increased with γ: γ=%v ti=%v prev=%v", g, ti, prev)
		}
		prev = ti
	}
}

func TestTIterGammaBelowOneClamped(t *testing.T) {
	p := refParams
	p.Gamma = 0.2
	q := refParams
	q.Gamma = 1
	pl := Placement{4, 2}
	if a, b := p.TIter(pl, 512), q.TIter(pl, 512); math.Abs(a-b) > 1e-12 {
		t.Errorf("γ<1 not clamped to 1: %v vs %v", a, b)
	}
}

func TestThroughputBatchLimitsScaling(t *testing.T) {
	// Paper Sec. 2.1/Fig. 1a: at a small batch size, adding GPUs stops
	// helping sooner than at a large batch size, because Tsync bounds
	// the iteration time.
	small, large := 512, 2048
	gain := func(m int) float64 {
		pl1 := Placement{4, 1}
		pl2 := Placement{16, 4}
		return refParams.Throughput(pl2, float64(m)) / refParams.Throughput(pl1, float64(m))
	}
	if gain(large) <= gain(small) {
		t.Errorf("larger batch should scale better: gain(2048)=%v <= gain(512)=%v",
			gain(large), gain(small))
	}
}

func TestThroughputZeroIterTime(t *testing.T) {
	var zero Params
	if tp := zero.Throughput(SingleGPU, 128); tp != 0 {
		t.Errorf("zero params throughput = %v, want 0 (guard)", tp)
	}
}

// Property: throughput is non-decreasing in batch size for a fixed
// placement (more work per fixed overhead).
func TestThroughputMonotoneInBatch(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randParams(rng)
		pl := randPlacement(rng, 16, 4)
		m := 32 + rng.Intn(4096)
		return p.Throughput(pl, float64(m+64)) >= p.Throughput(pl, float64(m))-1e-9
	}
	if err := quick.Check(prop, testutil.QuickConfig(500)); err != nil {
		t.Error(err)
	}
}

// Property: at fixed batch size and node count 1, throughput never
// decreases when co-located GPUs are added without retrogression terms.
func TestThroughputMonotoneInGPUsNoRetrogression(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randParams(rng)
		p.BetaSyncLocal = 0
		m := float64(256 + rng.Intn(4096))
		k := 2 + rng.Intn(3)
		a := p.Throughput(Placement{k, 1}, m)
		b := p.Throughput(Placement{k + 1, 1}, m)
		return b >= a-1e-9
	}
	if err := quick.Check(prop, testutil.QuickConfig(500)); err != nil {
		t.Error(err)
	}
}

func randParams(rng *rand.Rand) Params {
	return Params{
		AlphaGrad:      0.001 + rng.Float64()*0.2,
		BetaGrad:       1e-5 + rng.Float64()*0.001,
		AlphaSyncLocal: rng.Float64() * 0.1,
		BetaSyncLocal:  rng.Float64() * 0.01,
		AlphaSyncNode:  rng.Float64() * 0.3,
		BetaSyncNode:   rng.Float64() * 0.02,
		Gamma:          1 + rng.Float64()*9,
	}
}

func randPlacement(rng *rand.Rand, maxGPUs, maxPerNode int) Placement {
	k := 1 + rng.Intn(maxGPUs)
	minNodes := (k + maxPerNode - 1) / maxPerNode
	n := minNodes
	if k > minNodes {
		n = minNodes + rng.Intn(k-minNodes+1)
	}
	if n > k {
		n = k
	}
	return Placement{GPUs: k, Nodes: n}
}
