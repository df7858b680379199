// Package sim is a detmap fixture: its name makes it determinism-
// critical, so every range-over-map site here needs a justification.
package sim

import (
	"math/rand"
	"sort"
)

func flagged(m map[string]float64, rng *rand.Rand) float64 {
	var total float64
	for _, v := range m { // want `range over map in determinism-critical package sim`
		total += v // float accumulation: order changes last bits
	}
	var out []string
	for k := range m { // want `range over map in determinism-critical package sim`
		out = append(out, k) // never sorted afterwards
	}
	var last string
	for k := range m { // want `range over map in determinism-critical package sim`
		last = k // last-writer-wins on a shared variable
	}
	for range m { // want `range over map in determinism-critical package sim`
		total += rng.Float64() // impure body: draw order follows map order
	}
	for k, v := range m { // want `range over map in determinism-critical package sim`
		if v > 1 {
			_ = k
			break // which element terminates is order-dependent
		}
	}
	_ = last
	_ = out
	return total
}

// A type parameter whose type set is one map type ranges like that map.
func flaggedGeneric[M ~map[string]float64](m M) float64 {
	var total float64
	for _, v := range m { // want `range over map in determinism-critical package sim`
		total += v
	}
	return total
}

// Bodies whose outcome does not depend on the order are flagged too:
// the rule asks for a reason at every map range, not a proof.
func commutative(m map[string]float64, jobs map[int]int) []string {
	// Keyed writes into another map: each iteration owns its slot.
	inverted := make(map[float64]string, len(m))
	for k, v := range m { // want `range over map in determinism-critical package sim`
		inverted[v] = k
	}
	// Commutative integer counters.
	n := 0
	for _, g := range jobs { // want `range over map in determinism-critical package sim`
		n += g
	}
	// delete is keyed and commutative.
	for id := range jobs { // want `range over map in determinism-critical package sim`
		delete(jobs, id)
	}
	// The sortedKeys idiom: append, then sort immediately after.
	keys := make([]string, 0, len(m))
	for k := range m { // want `range over map in determinism-critical package sim`
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// The outer map range carries its reason; the inner slice range
	// needs none.
	usage := make([]int, 16)
	rows := map[string][]int{}
	//pollux:order-ok integer adds per node commute
	for _, row := range rows {
		for n, g := range row {
			usage[n] += g
		}
	}
	_ = n
	return keys
}

func justified(m map[string]float64) float64 {
	best := 0.0
	//pollux:order-ok ties are impossible: values are distinct powers of two
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	//pollux:order-ok
	for _, v := range m { // want `//pollux:order-ok needs a reason`
		_ = v
		break
	}
	return best
}
