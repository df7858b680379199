package sched

import (
	"strconv"
	"testing"

	"repro/internal/ga"
	"repro/internal/testutil"
)

func BenchmarkPolluxScheduleInterval(b *testing.B) {
	// One full scheduling interval at paper-like GA settings over a
	// moderately loaded cluster: the hot path of the whole system.
	v := viewWith(20, 16, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPollux(PolluxOptions{Population: 50, Generations: 30}, int64(i))
		p.Schedule(v)
	}
}

// BenchmarkPolluxScheduleWorkers sweeps the GA fitness worker count
// (GOMAXPROCS) over one scheduling interval. On an N-core host the
// workers/1-to-workers/N ns/op ratio is the per-interval speedup; outputs
// are bit-identical across the sweep (TestPolluxWorkersDeterminism).
func BenchmarkPolluxScheduleWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers/"+strconv.Itoa(workers), func(b *testing.B) {
			testutil.SetProcs(b, workers)
			v := viewWith(20, 16, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := NewPollux(PolluxOptions{Population: 50, Generations: 30}, int64(i))
				p.Schedule(v)
			}
		})
	}
}

// BenchmarkPolluxScheduleWarmCache measures consecutive intervals with an
// unchanged job set: after the first interval every SPEEDUP cell the GA
// visits is served from the cross-round cache, so later intervals skip
// the golden-section searches entirely.
func BenchmarkPolluxScheduleWarmCache(b *testing.B) {
	v := viewWith(20, 16, 4)
	p := NewPollux(PolluxOptions{Population: 50, Generations: 30}, 1)
	p.Schedule(v) // warm the per-job tables
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Schedule(v)
	}
}

// BenchmarkPolluxScheduleIncremental compares one steady-state scheduling
// round at production-ish scale (128 nodes, 256 jobs) across the three
// optimizer modes: the paper's full re-optimization, dirty-set
// incremental rounds, and incremental + rack-hierarchical decomposition.
// Each round refits one job's model (the typical between-round churn), so
// the incremental modes re-place a small dirty set instead of the whole
// cluster. cells/round is the GA fitness work per round (matrix cells
// scored, deterministic for a fixed seed); the full/incremental ratio is
// the headline reduction the mega exhibit measures at 512-1024 nodes.
func BenchmarkPolluxScheduleIncremental(b *testing.B) {
	modes := []struct {
		name string
		opts PolluxOptions
	}{
		{"full", PolluxOptions{}},
		{"incremental", PolluxOptions{Incremental: true, FullEvery: -1}},
		{"incremental+rack", PolluxOptions{Incremental: true, FullEvery: -1, RackSize: 16}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			opts := mode.opts
			opts.Population, opts.Generations = 30, 20
			p := NewPollux(opts, 1)
			v := viewWith(256, 128, 4)
			v.Current = p.Schedule(v) // commit the first full round
			var cells int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Jobs[i%len(v.Jobs)].Model.Phi *= 1.001 // one agent refit per round
				out := p.Schedule(v)
				v.Current = out
				cells += p.LastRoundStats().FitnessCells
			}
			b.ReportMetric(float64(cells)/float64(b.N), "cells/round")
		})
	}
}

// BenchmarkTiresiasSchedule times one Tiresias round on two shapes: small,
// 20 jobs on 16 nodes, and diurnal-peak, the peak of sim_tiresias_diurnal's
// 64-node day (diurnalPeakView), where most jobs are queued jobs that do not
// fit. CI gates diurnal-peak's allocs/op exactly (bench/baselines/gobench.json,
// at -benchtime 20x): nothing moves, so the round allocates its matrix of
// row headers and nothing else, and an allocation per job, or a scratch
// matrix, coming back moves it.
func BenchmarkTiresiasSchedule(b *testing.B) {
	for _, leg := range []struct {
		name string
		view func() *ClusterView
	}{
		{"small", func() *ClusterView { return viewWith(20, 16, 4) }},
		{"diurnal-peak", diurnalPeakView},
	} {
		b.Run(leg.name, func(b *testing.B) {
			v := leg.view()
			t := NewTiresias()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Schedule(v)
			}
		})
	}
}

// diurnalPeakView is the steady round at the peak of a 64-node diurnal
// day, the shape BenchmarkSimRoundSteady drives through the simulator: 190
// live jobs on 64 four-GPU nodes asking for several times the cluster, in
// three attained-service queues. Its Current is the last round's result,
// so a running job holds a row of its own and every queued job the one
// zero slice the backend shares.
func diurnalPeakView() *ClusterView {
	const jobs, nodes = 190, 64
	sizes := []int{1, 2, 4, 1, 8, 2, 16, 4}
	zero := make([]int, nodes)
	v := &ClusterView{Capacity: make([]int, nodes), Jobs: make([]JobView, jobs), Current: make(ga.Matrix, jobs)}
	for n := range v.Capacity {
		v.Capacity[n] = 4
	}
	for i := range v.Jobs {
		v.Jobs[i] = JobView{ID: i, Submit: float64(60 * i), UserGPUs: sizes[i%len(sizes)], GPUTime: float64(i*7919%48) * 900}
		v.Current[i] = zero
	}
	v.Current = NewTiresias().Schedule(v)
	return v
}

func BenchmarkOptimusSchedule(b *testing.B) {
	v := viewWith(20, 16, 4)
	o := NewOptimus(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Schedule(v)
	}
}
