package allreduce

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// runGroup executes one all-reduce across one goroutine per vector and
// returns each rank's resulting vector.
func runGroup(t *testing.T, allReduce func(rank int, data []float64) error, vectors [][]float64) [][]float64 {
	t.Helper()
	k := len(vectors)
	out := make([][]float64, k)
	var wg sync.WaitGroup
	errs := make([]error, k)
	for rank := 0; rank < k; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			data := make([]float64, len(vectors[rank]))
			copy(data, vectors[rank])
			errs[rank] = allReduce(rank, data)
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
	results := runGroup(t, NewRing(3).AllReduce, vectors)
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
	results := runGroup(t, NewRing(5).AllReduce, vectors)
	expectAverage(t, vectors, results)
}

func TestRingRepeatedRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := NewRing(4)
	for round := 0; round < 10; round++ {
		vectors := randVectors(rng, 4, 17)
		results := runGroup(t, r.AllReduce, vectors)
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
	results := runGroup(t, NewCentralServer(6).AllReduce, vectors)
	expectAverage(t, vectors, results)
}

func TestCentralServerRepeatedRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := NewCentralServer(3)
	for round := 0; round < 20; round++ {
		vectors := randVectors(rng, 3, 8)
		results := runGroup(t, s.AllReduce, vectors)
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
	ring := runGroup(t, NewRing(4).AllReduce, vectors)
	central := runGroup(t, NewCentralServer(4).AllReduce, vectors)
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

// CentralServer is the reference the ring is held to: a
// parameter-server-style aggregator where every rank pushes its vector, a
// barrier fires once all K have arrived, the average is computed once, and
// all ranks pull the result.
type CentralServer struct {
	k int

	mu     sync.Mutex
	cond   *sync.Cond
	sum    []float64
	pushed int
	round  int
	avg    []float64
}

// NewCentralServer creates a server for k replicas.
func NewCentralServer(k int) *CentralServer {
	if k < 1 {
		panic("allreduce: group size must be >= 1")
	}
	s := &CentralServer{k: k}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// AllReduce pushes the rank's vector and blocks until the round's average
// is ready, then copies it into data.
func (s *CentralServer) AllReduce(rank int, data []float64) error {
	if rank < 0 || rank >= s.k {
		return fmt.Errorf("allreduce: rank %d out of range [0, %d)", rank, s.k)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	myRound := s.round
	if s.sum == nil {
		s.sum = make([]float64, len(data))
	}
	if len(s.sum) != len(data) {
		return fmt.Errorf("allreduce: vector length %d != %d", len(data), len(s.sum))
	}
	for i, v := range data {
		s.sum[i] += v
	}
	s.pushed++
	if s.pushed == s.k {
		avg := make([]float64, len(s.sum))
		inv := 1 / float64(s.k)
		for i, v := range s.sum {
			avg[i] = v * inv
		}
		s.avg = avg
		s.sum = nil
		s.pushed = 0
		s.round++
		s.cond.Broadcast()
	} else {
		for s.round == myRound {
			s.cond.Wait()
		}
	}
	copy(data, s.avg)
	return nil
}
