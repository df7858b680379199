package ga

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/detrand"
	"repro/internal/testutil"
)

// BenchmarkGAStep is one steady generation at four shapes: tiny (what
// the standard 16-node trace mostly schedules, where the fixed cost per
// offspring is everything), std, full32 (the svc_round_full32 shape,
// where the cost per cell is), and one: a single job on 16 nodes, seeded
// from its own converged population, the median round of sim_pollux_std,
// where most offspring copy a parent. GOMAXPROCS 1 (no scorers), a
// counting rng source and a counting fitness, so allocs/op, draws/op and
// fitness/op repeat exactly at a fixed -benchtime Nx and CI gates all
// three: an allocation per offspring or an rng draw per cell coming back
// moves the first two, and a copy of a parent scored again the third.
func BenchmarkGAStep(b *testing.B) {
	for _, leg := range []struct {
		name        string
		jobs, nodes int
		converged   bool
	}{{"tiny", 2, 16, false}, {"std", 30, 16, false}, {"full32", 96, 32, false}, {"one", 1, 16, true}} {
		b.Run(leg.name, func(b *testing.B) {
			testutil.SetProcs(b, 1) // here, not in the parent: testing resets GOMAXPROCS per leg
			capacity := make([]int, leg.nodes)
			for n := range capacity {
				capacity[n] = 4
			}
			src := detrand.NewSource(1)
			rng := rand.New(src)
			calls := 0
			fitness := func(m Matrix) float64 {
				calls++
				return simpleFitness(m)
			}
			prob := Problem{Capacity: capacity, Jobs: leg.jobs, Fitness: fitness, InterferenceAvoidance: true}
			opts := Options{Population: 50}
			var seeds []Matrix
			if leg.converged {
				// A scheduling interval's worth of generations, as the
				// previous round ran them.
				prev := New(prob, opts, rng, nil)
				prev.Run(30)
				seeds = prev.Population()
			}
			g := New(prob, opts, rng, seeds)
			g.Run(2) // fill the buffer pool
			start, startCalls := src.State().Draws, calls
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Step()
			}
			b.ReportMetric(float64(src.State().Draws-start)/float64(b.N), "draws/op")
			b.ReportMetric(float64(calls-startCalls)/float64(b.N), "fitness/op")
		})
	}
}

// BenchmarkGANew builds the GA of one svc_round_full32 round: 96 jobs on 32
// nodes, population 50, seeded with a population carried from a previous
// GA as PolluxSched seeds it, at GOMAXPROCS 1. A GA's allocations do not depend
// on its population size (its genomes are cut from one array), and CI
// gates allocs/op exactly, so an allocation per genome or per seed coming
// back into New fails there.
func BenchmarkGANew(b *testing.B) {
	b.Run("full32", func(b *testing.B) {
		testutil.SetProcs(b, 1)
		capacity := make([]int, 32)
		for n := range capacity {
			capacity[n] = 4
		}
		rng := rand.New(rand.NewSource(1))
		prob := Problem{Capacity: capacity, Jobs: 96, Fitness: simpleFitness, InterferenceAvoidance: true}
		opts := Options{Population: 50}
		prev := New(prob, opts, rng, nil)
		prev.Run(2)
		seeds := prev.Population()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			New(prob, opts, rng, seeds)
		}
	})
}

// BenchmarkGAStepWorkers isolates the fitness fan-out: the same generation
// at GOMAXPROCS 1, 2, 4, and 8 with an artificially expensive fitness (the
// real one runs golden-section searches on cache misses), at the
// svc_round_full32 shape, where a generation is large enough to start
// scorers (minScorerCells). The ns/op ratio between workers/1 and
// workers/N is the scheduler-interval speedup on an N-core host. A steady
// generation allocates only what starting its N−1 scorers takes, so
// allocs/op repeats at a fixed -benchtime Nx and CI gates workers/2's:
// its 1 is also the evidence that New reads the worker count from
// GOMAXPROCS, where a GA that started no scorer would read 0.
func BenchmarkGAStepWorkers(b *testing.B) {
	expensive := func(m Matrix) float64 {
		f := simpleFitness(m)
		for i := 0; i < 2000; i++ {
			f += 1e-12 * float64(i%7)
		}
		return f
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers/"+strconv.Itoa(workers), func(b *testing.B) {
			testutil.SetProcs(b, workers)
			rng := rand.New(rand.NewSource(1))
			capacity := make([]int, 32)
			for n := range capacity {
				capacity[n] = 4
			}
			prob := Problem{Capacity: capacity, Jobs: 96, Fitness: expensive, InterferenceAvoidance: true}
			g := New(prob, Options{Population: 50}, rng, nil)
			g.Run(2) // fill the buffer pool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Step()
			}
		})
	}
}

// BenchmarkRepairCapacityOverloaded is the worst case for repair: every
// node far over capacity with many candidate jobs, which the old
// re-scan-per-GPU implementation made quadratic.
func BenchmarkRepairCapacityOverloaded(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	capacity := make([]int, 16)
	for i := range capacity {
		capacity[i] = 4
	}
	src := NewMatrix(100, 16)
	for j := range src {
		for n := range src[j] {
			src[j][n] = 1 + rng.Intn(4)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := src.Clone()
		RepairCapacity(m, capacity, rng)
	}
}

func BenchmarkRepairCapacity(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	capacity := make([]int, 16)
	for i := range capacity {
		capacity[i] = 4
	}
	src := NewMatrix(30, 16)
	for j := range src {
		for n := range src[j] {
			src[j][n] = rng.Intn(5)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := src.Clone()
		RepairCapacity(m, capacity, rng)
	}
}

// BenchmarkRepairInterference measures the interference repair on a
// diurnal64-shaped matrix (80 jobs x 64 nodes, every job distributed
// over 2-4 nodes — the ~7% hotspot from the diurnal64 profile). The
// onepass case is the live implementation with incrementally maintained
// per-job node counts; stable is the former rescan-until-stable
// implementation (kept in ga_test.go as the behaviour oracle). Both
// sub-benchmarks include one matrix Clone per iteration.
func BenchmarkRepairInterference(b *testing.B) {
	const jobs, nodes = 80, 64
	rng := rand.New(rand.NewSource(3))
	src := NewMatrix(jobs, nodes)
	for j := range src {
		for k, span := 0, 2+rng.Intn(3); k < span; k++ {
			src[j][rng.Intn(nodes)] = 1 + rng.Intn(4)
		}
	}
	impls := []struct {
		name   string
		repair func(Matrix, *rand.Rand)
	}{
		{"onepass", RepairInterference},
		{"stable", repairInterferenceStable},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < b.N; i++ {
				m := src.Clone()
				impl.repair(m, rng)
			}
		})
	}
}
