// Package eventsim is a clocktaint fixture. clock.go is the one
// allowlisted file: the Wall clock implementation itself.
package eventsim

import "time"

// Wait paces to the wall clock; this file may touch it.
func Wait(d time.Duration) time.Time {
	time.Sleep(d)
	return time.Now()
}
