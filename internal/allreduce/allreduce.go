// Package allreduce implements the gradient-synchronization collectives
// that distributed data-parallel training relies on (Sec. 2.1 of the
// Pollux paper cites all-reduce as PyTorch's synchronization algorithm and
// parameter servers as the alternative). Replicas are goroutines and links
// are channels, so the package provides the real synchronization
// semantics — bulk-synchronous averaging with barrier behaviour — that the
// training substrate (internal/train) builds on.
//
// Ring is the bandwidth-optimal ring all-reduce (reduce-scatter followed
// by all-gather, 2(K-1) steps over K chunks): it averages the K replicas'
// vectors element-wise and delivers the same result to every replica. The
// package's tests hold it to a parameter-server-style central aggregator.
package allreduce

import "fmt"

// Ring is a channel-based ring all-reduce. AllReduce must be called
// concurrently by every rank in [0, K); each call blocks until the group's
// average is available and then overwrites data with it. Vectors must have
// equal lengths across ranks.
type Ring struct {
	k int
	// links[i] carries chunks from rank i to rank (i+1) mod k.
	links []chan []float64
}

// NewRing creates a ring all-reduce group for k replicas.
func NewRing(k int) *Ring {
	if k < 1 {
		panic("allreduce: group size must be >= 1")
	}
	links := make([]chan []float64, k)
	for i := range links {
		links[i] = make(chan []float64, 1)
	}
	return &Ring{k: k, links: links}
}

// AllReduce performs the ring algorithm: the vector is split into K
// chunks; in the reduce-scatter phase each rank accumulates one chunk's
// full sum, and in the all-gather phase the finished chunks circulate
// around the ring. Finally each rank divides by K to average.
func (r *Ring) AllReduce(rank int, data []float64) error {
	if rank < 0 || rank >= r.k {
		return fmt.Errorf("allreduce: rank %d out of range [0, %d)", rank, r.k)
	}
	if r.k == 1 {
		return nil
	}
	n := len(data)
	bounds := chunkBounds(n, r.k)
	send := r.links[rank]
	recv := r.links[(rank-1+r.k)%r.k]

	// Reduce-scatter: step s sends chunk (rank - s) and receives chunk
	// (rank - s - 1), accumulating into it.
	for s := 0; s < r.k-1; s++ {
		sendIdx := mod(rank-s, r.k)
		recvIdx := mod(rank-s-1, r.k)
		lo, hi := bounds[sendIdx], bounds[sendIdx+1]
		out := make([]float64, hi-lo)
		copy(out, data[lo:hi])
		send <- out
		in := <-recv
		lo, hi = bounds[recvIdx], bounds[recvIdx+1]
		for i := range in {
			data[lo+i] += in[i]
		}
	}
	// All-gather: step s sends the completed chunk (rank + 1 - s) and
	// receives chunk (rank - s), overwriting it.
	for s := 0; s < r.k-1; s++ {
		sendIdx := mod(rank+1-s, r.k)
		recvIdx := mod(rank-s, r.k)
		lo, hi := bounds[sendIdx], bounds[sendIdx+1]
		out := make([]float64, hi-lo)
		copy(out, data[lo:hi])
		send <- out
		in := <-recv
		lo, hi = bounds[recvIdx], bounds[recvIdx+1]
		copy(data[lo:hi], in)
	}
	// Average.
	inv := 1 / float64(r.k)
	for i := range data {
		data[i] *= inv
	}
	return nil
}

// chunkBounds splits n elements into k contiguous chunks (some possibly
// empty when n < k), returning k+1 boundary indices.
func chunkBounds(n, k int) []int {
	b := make([]int, k+1)
	base, rem := n/k, n%k
	for i := 0; i < k; i++ {
		b[i+1] = b[i] + base
		if i < rem {
			b[i+1]++
		}
	}
	return b
}

func mod(a, m int) int {
	return ((a % m) + m) % m
}
