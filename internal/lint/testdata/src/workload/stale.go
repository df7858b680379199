// Package workload exercises directive hygiene in a determinism-
// critical fixture package: a justification must name a real analyzer,
// carry a reason, and actually suppress something.
package workload

var counts = map[string]int{}

// Stale: the loop was refactored to range a sorted key slice, so the
// directive over it suppresses nothing.
func sortedTotals(keys []string) int {
	sum := 0
	//pollux:order-ok totals accumulate commutatively // want `stale //pollux:order-ok: it suppresses no detmap finding`
	for _, k := range keys {
		sum += counts[k]
	}
	return sum
}

// Unknown: a typo'd directive name, or one no analyzer owns, is flagged
// against the registry.
//
//pollux:oder-ok commutative fold // want `unknown directive //pollux:oder-ok`
func total() int {
	//pollux:wallclock-ok log timestamp only // want `unknown directive //pollux:wallclock-ok`
	//pollux:rngshare-ok worker joined before the next draw // want `unknown directive //pollux:rngshare-ok`
	sum := 0
	for _, n := range counts { // want `range over map in determinism-critical package workload`
		sum += n
	}
	return sum
}

// Missing reason: the directive is load-bearing (the append order below
// is genuinely iteration-dependent) but bare — it suppresses, and the
// missing reason is reported at the suppressed site.
func orderDependent() []string {
	var names []string
	//pollux:order-ok
	for k := range counts { // want `//pollux:order-ok needs a reason`
		names = append(names, k)
	}
	return names
}

// Used: a justified, genuinely order-dependent loop is the baseline —
// no finding anywhere.
func justified() []string {
	var names []string
	//pollux:order-ok downstream consumer sorts before use
	for k := range counts {
		names = append(names, k)
	}
	return names
}
