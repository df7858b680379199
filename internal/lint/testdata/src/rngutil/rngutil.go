// Package rngutil is the helper side of the rngescape fixture: each
// function's treatment of its *rand.Rand parameter becomes a parameter
// fact that call sites in the rngescape fixture package are checked
// against.
package rngutil

import "math/rand"

var stash *rand.Rand

// Spawn hands the rng to a goroutine it starts: the fact.
func Spawn(rng *rand.Rand, out []float64) {
	go func() {
		out[0] = rng.Float64()
	}()
}

// Forward only forwards to Spawn — the fact must compose transitively.
func Forward(rng *rand.Rand, out []float64) {
	Forward2(rng, out)
}

// Forward2 is the middle hop between Forward and Spawn.
func Forward2(rng *rand.Rand, out []float64) {
	Spawn(rng, out)
}

// Keep retains the rng past the call but starts no goroutine: no fact.
func Keep(rng *rand.Rand) {
	stash = rng
}

// Draw uses the rng on the caller's goroutine: no fact, clean.
func Draw(rng *rand.Rand) float64 {
	return rng.Float64()
}

// Holder owns an rng seeded by its constructor — the repo's sanctioned
// pattern: no fact on the parameter.
type Holder struct{ rng *rand.Rand }

// NewHolder stores the rng in the returned struct.
func NewHolder(rng *rand.Rand) *Holder {
	return &Holder{rng: rng}
}
