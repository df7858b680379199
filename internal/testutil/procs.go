package testutil

import (
	"runtime"
	"testing"
)

// SetProcs sets GOMAXPROCS to n for the rest of tb and restores the
// previous value in tb's Cleanup. GOMAXPROCS is the one bound on the
// program's parallelism (the GA's fitness scorers, the agents' refits, the
// multi-seed fan-out), so a test comparing worker counts runs each leg
// under a different value. It is process-wide: never call it from a test
// that runs in parallel with others. A benchmark calls it in the function
// that loops b.N times, since testing sets GOMAXPROCS to the -cpu value
// before it runs each sub-benchmark.
func SetProcs(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
