// Package rngescape exercises the parameter-fact analyzer: a
// *rand.Rand handed to a helper whose parameter (transitively) reaches
// another goroutine is flagged at the call site, even though the go
// statement lives packages away.
package rngescape

import (
	"math/rand"

	"par"
	"rngutil"
)

// Flagged: the escape is one, two, and three hops away.

func callSpawn(rng *rand.Rand, out []float64) {
	rngutil.Spawn(rng, out) // want `\*rand\.Rand passed to rngutil\.Spawn, which hands it to another goroutine \(rngutil\.Spawn → a closure spawned via a go statement\)`
}

func callForward(rng *rand.Rand, out []float64) {
	rngutil.Forward(rng, out) // want `\*rand\.Rand passed to rngutil\.Forward, which hands it to another goroutine \(rngutil\.Forward → rngutil\.Forward2 → rngutil\.Spawn → a closure spawned via a go statement\)`
}

// Flagged: a same-package helper hides the boundary just as well (and
// its own go statement is a spawn site).

func spawnLocal(r *rand.Rand) {
	go func() {
		_ = r.Int63() // want `\*rand\.Rand "r" captured by a closure spawned via go statement`
	}()
}

func callLocal(rng *rand.Rand) {
	spawnLocal(rng) // want `\*rand\.Rand passed to rngescape\.spawnLocal, which hands it to another goroutine \(rngescape\.spawnLocal → a closure spawned via a go statement\)`
}

// Allowed: retention without a goroutine — the owned-rng constructor
// pattern — stays clean, and drawing on the caller's goroutine is the
// sanctioned use.

func buildHolder(rng *rand.Rand) *rngutil.Holder {
	rngutil.Keep(rng)
	return rngutil.NewHolder(rng)
}

func drawHere(rng *rand.Rand) float64 {
	return rngutil.Draw(rng)
}

// Flagged once, as spawn sites: a literal go statement and a known spawn
// helper are reported where the goroutine starts, not again as calls.

func literalGo(rng *rand.Rand, out []float64) {
	go rngutil.Spawn(rng, out) // want `\*rand\.Rand passed into go statement`
}

func viaPar(rng *rand.Rand, out []float64) {
	par.For(len(out), 2, func(i int) {
		out[i] = rng.Float64() // want `\*rand\.Rand "rng" captured by a closure spawned via par\.For`
	})
}

// Justified: rngescape-ok suppresses at one hop and at three.

func justified(rng *rand.Rand, out []float64) {
	//pollux:rngescape-ok worker draws are re-seeded per index downstream
	rngutil.Spawn(rng, out)
}

func shareJustified(rng *rand.Rand, out []float64) {
	//pollux:rngescape-ok single worker, serial draw order preserved
	rngutil.Forward(rng, out)
}
