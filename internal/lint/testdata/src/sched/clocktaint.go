// Package sched is a determinism-critical fixture (critical() matches
// the final path element): clocktaint flags calls that reach the wall
// clock only through helpers in other packages — a gap no check of the
// call site alone can see.
package sched

import (
	"time"

	"clockutil"
	"clockwrap"
)

// Flagged: cross-package taint at depth 1, depth 2, and via a method.

func scheduleStamp() int64 {
	return clockutil.NowUnix() // want `clockutil\.NowUnix transitively reaches time\.Now in determinism-critical package sched \(clockutil\.NowUnix → time\.Now\)`
}

func scheduleWait() {
	clockutil.SleepBriefly() // want `clockutil\.SleepBriefly transitively reaches time\.Sleep`
}

func wrappedStamp() int64 {
	return clockwrap.Stamp() // want `clockwrap\.Stamp transitively reaches time\.Now in determinism-critical package sched \(clockwrap\.Stamp → clockutil\.NowUnix → time\.Now\)`
}

func methodTouch(t *clockutil.Timer) {
	t.Touch() // want `clockutil\.\(Timer\)\.Touch transitively reaches time\.Now`
}

// Flagged: same-package helper taint — localStamp's direct time.Now and
// a *call* to localStamp are both findings.

func localStamp() int64 {
	return time.Now().UnixNano() // want `time.Now in determinism-critical package sched`
}

func viaLocal() int64 {
	return localStamp() // want `sched\.localStamp transitively reaches time\.Now in determinism-critical package sched \(sched\.localStamp → time\.Now\)`
}

// Allowed: clean helpers never pick up taint.

func span(a, b int64) int64 {
	return clockutil.Elapsed(a, b) + clockwrap.Span(a, b)
}

// Justified: a clocktaint-ok site is suppressed and does not propagate
// taint into its enclosing function, so callers of the justified
// wrapper stay clean too.

func justifiedStamp() int64 {
	//pollux:clocktaint-ok boot-time banner only, never inside the simulated timeline
	return clockutil.NowUnix()
}

func viaJustified() int64 {
	return justifiedStamp()
}

// Justified: one clocktaint-ok at a two-package-deep call covers the
// whole chain below it.

func doubleJustified() int64 {
	//pollux:clocktaint-ok log decoration outside the deterministic core
	return clockwrap.Stamp()
}
