package core

import (
	"math/rand"
	"testing"
)

func benchModel() Model {
	return Model{
		Params:         refParams,
		Phi:            5000,
		M0:             128,
		MaxBatchPerGPU: 1024,
	}
}

func BenchmarkGoodputEval(b *testing.B) {
	m := benchModel()
	pl := Placement{GPUs: 16, Nodes: 4}
	for i := 0; i < b.N; i++ {
		m.Goodput(pl, 2048)
	}
}

func BenchmarkOptimalBatch(b *testing.B) {
	m := benchModel()
	pl := Placement{GPUs: 16, Nodes: 4}
	for i := 0; i < b.N; i++ {
		m.OptimalBatch(pl)
	}
}

func BenchmarkSpeedup(b *testing.B) {
	m := benchModel()
	pl := Placement{GPUs: 16, Nodes: 4}
	for i := 0; i < b.N; i++ {
		m.Speedup(pl)
	}
}

// reportFitCost reports what one such fit costs the optimizer, every start
// counted. Both counts are deterministic, so bench/baselines/gobench.json
// gates the iteration budget exactly, next to allocs/op.
func reportFitCost(b *testing.B, samples []Sample, prev Params, explored Exploration) {
	r := fit(newRMSLELoss(samples), samples, prev, explored)
	b.ReportMetric(float64(r.Iters), "iters/op")
	b.ReportMetric(float64(r.Evals), "evals/op")
}

func BenchmarkFitThroughputModel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := genSamples(rng, refParams, 0.05, 4, allPlacements)
	explored := Exploration{MaxGPUs: 16, MaxNodes: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(samples, Params{}, explored)
	}
	b.StopTimer()
	reportFitCost(b, samples, Params{}, explored)
}

// BenchmarkFitWarmTail is the fit a trace spends its time in: a full Fit,
// warm-started from the previous one, after one more batch size arrived on
// the large placement of a tailSamples profile.
func BenchmarkFitWarmTail(b *testing.B) {
	samples, _, explored := tailSamples(rand.New(rand.NewSource(1)))
	prev := Fit(samples[:len(samples)-1], Params{}, explored)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(samples, prev, explored)
	}
	b.StopTimer()
	reportFitCost(b, samples, prev, explored)
}
