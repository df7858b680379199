// Package par provides the bounded deterministic parallel-for shared by
// the agents' batched refits (agent.RefitAll) and the simulator's
// multi-seed fan-out (sim.RunSeeds).
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), fanning the calls out over at
// most workers goroutines; workers <= 1 runs them inline on the caller's
// goroutine. Work is handed out by an atomic counter, so callers obtain
// results independent of interleaving by writing to index-owned slots
// and reducing in index order after For returns.
func For(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
