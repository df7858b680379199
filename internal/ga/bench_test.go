package ga

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/detrand"
)

// BenchmarkGAStep is one steady generation at three shapes: tiny (what
// the standard 16-node trace mostly schedules, where the fixed cost per
// offspring is everything), std, and full32 (the svc_round_full32 shape,
// where the cost per cell is). One goroutine and a counting rng source, so
// allocs/op and draws/op repeat exactly at a fixed -benchtime Nx and CI
// gates both: an allocation per offspring or an rng draw per cell coming
// back moves them.
func BenchmarkGAStep(b *testing.B) {
	for _, leg := range []struct {
		name        string
		jobs, nodes int
	}{{"tiny", 2, 16}, {"std", 30, 16}, {"full32", 96, 32}} {
		b.Run(leg.name, func(b *testing.B) {
			capacity := make([]int, leg.nodes)
			for n := range capacity {
				capacity[n] = 4
			}
			src := detrand.NewSource(1)
			prob := Problem{Capacity: capacity, Jobs: leg.jobs, Fitness: simpleFitness, InterferenceAvoidance: true}
			g := New(prob, Options{Population: 50, Workers: 1}, rand.New(src), nil)
			g.Run(2) // fill the buffer pool
			start := src.State().Draws
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Step()
			}
			b.ReportMetric(float64(src.State().Draws-start)/float64(b.N), "draws/op")
		})
	}
}

// BenchmarkGAStepWorkers isolates the fitness fan-out: the same generation
// under 1, 2, 4, and 8 workers with an artificially expensive fitness (the
// real one runs golden-section searches on cache misses). The ns/op ratio
// between workers/1 and workers/N is the scheduler-interval speedup on an
// N-core host.
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
			rng := rand.New(rand.NewSource(1))
			prob := Problem{
				Capacity:              []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4},
				Jobs:                  30,
				Fitness:               expensive,
				InterferenceAvoidance: true,
			}
			g := New(prob, Options{Population: 50, Workers: workers}, rng, nil)
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
