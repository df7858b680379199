package allreduce

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// runGroup executes one all-reduce across k goroutines and returns each
// rank's resulting vector.
func runGroup(t *testing.T, r Reducer, vectors [][]float64) [][]float64 {
	t.Helper()
	k := r.Ranks()
	out := make([][]float64, k)
	var wg sync.WaitGroup
	errs := make([]error, k)
	for rank := 0; rank < k; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			data := make([]float64, len(vectors[rank]))
			copy(data, vectors[rank])
			errs[rank] = r.AllReduce(rank, data)
			out[rank] = data
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return out
}

func expectAverage(t *testing.T, vectors, results [][]float64) {
	t.Helper()
	k := len(vectors)
	dim := len(vectors[0])
	want := make([]float64, dim)
	for _, v := range vectors {
		for i := range v {
			want[i] += v[i]
		}
	}
	for i := range want {
		want[i] /= float64(k)
	}
	for rank, res := range results {
		for i := range res {
			if math.Abs(res[i]-want[i]) > 1e-9 {
				t.Fatalf("rank %d elem %d = %v, want %v", rank, i, res[i], want[i])
			}
		}
	}
}

func randVectors(rng *rand.Rand, k, dim int) [][]float64 {
	vs := make([][]float64, k)
	for r := range vs {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64() * 10
		}
		vs[r] = v
	}
	return vs
}

func TestRingAveragesKnownVectors(t *testing.T) {
	vectors := [][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
	}
	results := runGroup(t, NewRing(3), vectors)
	expectAverage(t, vectors, results)
}

func TestRingSingleRankNoOp(t *testing.T) {
	r := NewRing(1)
	data := []float64{1, 2, 3}
	if err := r.AllReduce(0, data); err != nil {
		t.Fatal(err)
	}
	if data[0] != 1 || data[2] != 3 {
		t.Errorf("single-rank all-reduce changed data: %v", data)
	}
}

func TestRingRankOutOfRange(t *testing.T) {
	r := NewRing(2)
	if err := r.AllReduce(2, []float64{1}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestRingVectorShorterThanGroup(t *testing.T) {
	// dim < K exercises empty chunks.
	vectors := randVectors(rand.New(rand.NewSource(3)), 5, 3)
	results := runGroup(t, NewRing(5), vectors)
	expectAverage(t, vectors, results)
}

func TestRingRepeatedRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := NewRing(4)
	for round := 0; round < 10; round++ {
		vectors := randVectors(rng, 4, 17)
		results := runGroup(t, r, vectors)
		expectAverage(t, vectors, results)
	}
}

// Property: ring all-reduce equals the arithmetic average for random
// group sizes and dimensions.
func TestRingProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(7)
		dim := 1 + rng.Intn(64)
		vectors := randVectors(rng, k, dim)
		r := NewRing(k)

		out := make([][]float64, k)
		var wg sync.WaitGroup
		for rank := 0; rank < k; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				data := append([]float64(nil), vectors[rank]...)
				if err := r.AllReduce(rank, data); err == nil {
					out[rank] = data
				}
			}(rank)
		}
		wg.Wait()

		want := make([]float64, dim)
		for _, v := range vectors {
			for i := range v {
				want[i] += v[i] / float64(k)
			}
		}
		for _, res := range out {
			if res == nil {
				return false
			}
			for i := range res {
				if math.Abs(res[i]-want[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickConfig(50)); err != nil {
		t.Error(err)
	}
}

func TestCentralServerAverages(t *testing.T) {
	vectors := randVectors(rand.New(rand.NewSource(5)), 6, 33)
	results := runGroup(t, NewCentralServer(6), vectors)
	expectAverage(t, vectors, results)
}

func TestCentralServerRepeatedRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := NewCentralServer(3)
	for round := 0; round < 20; round++ {
		vectors := randVectors(rng, 3, 8)
		results := runGroup(t, s, vectors)
		expectAverage(t, vectors, results)
	}
}

func TestCentralServerRankOutOfRange(t *testing.T) {
	s := NewCentralServer(2)
	if err := s.AllReduce(-1, []float64{1}); err == nil {
		t.Error("negative rank accepted")
	}
}

func TestRingMatchesCentralServer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vectors := randVectors(rng, 4, 29)
	ring := runGroup(t, NewRing(4), vectors)
	central := runGroup(t, NewCentralServer(4), vectors)
	for i := range ring[0] {
		if math.Abs(ring[0][i]-central[0][i]) > 1e-9 {
			t.Fatalf("elem %d: ring %v vs central %v", i, ring[0][i], central[0][i])
		}
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewRing(0) },
		func() { NewCentralServer(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for k=0")
				}
			}()
			f()
		}()
	}
}

func BenchmarkRingAllReduce8x4096(b *testing.B) {
	const k, dim = 8, 4096
	r := NewRing(k)
	vectors := randVectors(rand.New(rand.NewSource(1)), k, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for rank := 0; rank < k; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				data := append([]float64(nil), vectors[rank]...)
				r.AllReduce(rank, data)
			}(rank)
		}
		wg.Wait()
	}
}

func BenchmarkCentralServerAllReduce8x4096(b *testing.B) {
	const k, dim = 8, 4096
	s := NewCentralServer(k)
	vectors := randVectors(rand.New(rand.NewSource(2)), k, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for rank := 0; rank < k; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				data := append([]float64(nil), vectors[rank]...)
				s.AllReduce(rank, data)
			}(rank)
		}
		wg.Wait()
	}
}
