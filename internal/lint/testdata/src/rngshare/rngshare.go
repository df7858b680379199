// Package rngshare is the rngescape fixture for literal spawn sites: a
// *rand.Rand must not cross a goroutine boundary, in any package.
package rngshare

import (
	"math/rand"

	"par"
)

type group struct{}

func (group) Go(fn func()) { go fn() }

func flagged(rng *rand.Rand, out []float64) {
	go func() {
		out[0] = rng.Float64() // want `\*rand.Rand "rng" captured by a closure spawned via go statement`
	}()
	go consume(rng) // want `\*rand.Rand passed into go statement`
	par.For(len(out), 2, func(i int) {
		out[i] = rng.Float64() // want `\*rand.Rand "rng" captured by a closure spawned via par.For`
	})
	var g group
	g.Go(func() {
		_ = rng.Intn(3) // want `\*rand.Rand "rng" captured by a closure spawned via`
	})
}

func consume(rng *rand.Rand) { _ = rng.Float64() }

func allowed(seed int64, out []float64) {
	// Draw on the caller's goroutine; workers get data, not the rng.
	rng := rand.New(rand.NewSource(seed))
	noise := make([]float64, len(out))
	for i := range noise {
		noise[i] = rng.Float64()
	}
	par.For(len(out), 2, func(i int) {
		out[i] = noise[i] * 2
	})
	// Or derive a goroutine-local rng from a seed inside the closure.
	par.For(len(out), 2, func(i int) {
		local := rand.New(rand.NewSource(seed + int64(i)*7919))
		out[i] = local.Float64()
	})
}

func justified(rng *rand.Rand) {
	done := make(chan struct{})
	go func() {
		_ = rng.Float64() //pollux:rngescape-ok the goroutine is joined before the caller draws again
		close(done)
	}()
	<-done
}
