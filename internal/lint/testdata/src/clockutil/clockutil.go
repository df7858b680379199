// Package clockutil is a non-critical fixture helper: its direct clock
// reads are not flagged, but clocktaint records function facts that flag
// the call sites in the critical sched fixture.
package clockutil

import "time"

// NowUnix reaches the wall clock directly: tainted at depth 1.
func NowUnix() int64 {
	return time.Now().Unix()
}

// SleepBriefly reaches the clock through a different root.
func SleepBriefly() {
	time.Sleep(time.Millisecond)
}

// Elapsed is clean: pure arithmetic, no clock.
func Elapsed(start, end int64) int64 {
	return end - start
}

// Timer is a named type whose method is tainted.
type Timer struct{ last int64 }

// Touch reads the wall clock through NowUnix: tainted at depth 2 via a
// method.
func (t *Timer) Touch() {
	t.last = NowUnix()
}
