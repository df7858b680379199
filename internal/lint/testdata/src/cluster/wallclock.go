// Package cluster is a clocktaint fixture for direct uses: its name makes
// it determinism-critical, so wall-clock time and global math/rand are
// forbidden here.
package cluster

import (
	"math/rand"
	"time"
)

func flagged() {
	_ = time.Now()                     // want `time.Now in determinism-critical package cluster`
	time.Sleep(time.Millisecond)       // want `time.Sleep in determinism-critical package cluster`
	<-time.After(time.Second)          // want `time.After in determinism-critical package cluster`
	t := time.Now()                    // want `time.Now in determinism-critical package cluster`
	_ = time.Since(t)                  // want `time.Since in determinism-critical package cluster`
	_ = rand.Intn(10)                  // want `global rand.Intn in determinism-critical package cluster`
	rand.Shuffle(3, func(i, j int) {}) // want `global rand.Shuffle in determinism-critical package cluster`
}

func allowed(seed int64) float64 {
	// Seeded rng constructors are the sanctioned source of randomness.
	rng := rand.New(rand.NewSource(seed))
	// Methods on an owned rng are fine; only package-level draws are
	// global state.
	v := rng.Float64()
	// Pure time constructors and arithmetic carry no wall-clock read.
	d := 3 * time.Second
	_ = d.Seconds()
	_ = time.Unix(0, 0)
	return v
}

func justified() time.Time {
	//pollux:clocktaint-ok operator-facing log timestamp, never enters a trace
	return time.Now()
}
