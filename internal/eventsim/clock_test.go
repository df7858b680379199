package eventsim

import (
	"testing"
	"time"
)

// TestDriveDispatchesInOrder: Drive must pop in kernel order and let
// handlers push follow-up events that are interleaved correctly.
func TestDriveDispatchesInOrder(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 10, Class: ClassJob, Job: 2, Kind: 1})
	q.Push(Event{Time: 5, Class: ClassCluster, Kind: 0})

	var got []float64
	end := Drive(&q, Virtual{}, 0, func(e Event) bool {
		got = append(got, e.Time)
		if e.Time == 5 {
			// A handler may extend the schedule.
			q.Push(Event{Time: 7, Class: ClassJob, Job: 1, Kind: 0})
		}
		return true
	})
	want := []float64{5, 7, 10}
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		//pollux:floateq-ok dispatch hands back the exact times pushed; any difference is a kernel bug
		if got[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", got, want)
		}
	}
	if end != 10 {
		t.Errorf("Drive returned %v, want 10", end)
	}
}

// TestDriveStopsOnFalse: returning false must stop the loop immediately,
// leaving later events unpopped.
func TestDriveStopsOnFalse(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 1})
	q.Push(Event{Time: 2})
	q.Push(Event{Time: 3})
	n := 0
	end := Drive(&q, Virtual{}, 0, func(e Event) bool {
		n++
		return e.Time < 2
	})
	if n != 2 {
		t.Errorf("handled %d events, want 2", n)
	}
	if end != 2 {
		t.Errorf("Drive returned %v, want 2", end)
	}
	if len(q.items) != 1 {
		t.Errorf("queue has %d events left, want 1", len(q.items))
	}
}

// TestDriveEmptyQueue: an empty queue returns the start time untouched.
func TestDriveEmptyQueue(t *testing.T) {
	var q Queue
	end := Drive(&q, Virtual{}, 42, func(Event) bool { t.Fatal("handler called"); return false })
	if end != 42 {
		t.Errorf("Drive returned %v, want 42", end)
	}
}

// TestWallClockSleepsScaledGaps: the wall clock must sleep each gap
// scaled by 1/Compression, anchored to the first Wait.
func TestWallClockSleepsScaledGaps(t *testing.T) {
	var slept []time.Duration
	now := time.Unix(0, 0)
	w := &Wall{
		Compression: 100,
		NowFn:       func() time.Time { return now },
		SleepFn: func(d time.Duration) {
			slept = append(slept, d)
			now = now.Add(d) // the sleep is the only wall time that passes
		},
	}
	w.Wait(0, 50)  // 50 sim-s at 100x -> 500 ms
	w.Wait(50, 60) // +10 sim-s -> 100 ms
	want := []time.Duration{500 * time.Millisecond, 100 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("slept %v, want %v", slept, want)
	}
}

// TestWallClockAbsorbsHandlerTime: when event handling already consumed
// the gap's wall budget, Wait must not sleep (anchored pacing catches up
// instead of accumulating drift).
func TestWallClockAbsorbsHandlerTime(t *testing.T) {
	now := time.Unix(0, 0)
	slept := time.Duration(0)
	w := &Wall{
		Compression: 10,
		NowFn:       func() time.Time { return now },
		SleepFn: func(d time.Duration) {
			slept += d
			now = now.Add(d)
		},
	}
	w.Wait(0, 0)                   // anchor
	now = now.Add(3 * time.Second) // a slow handler burned 3 s of wall time
	w.Wait(0, 10)                  // 10 sim-s = 1 s wall budget, already spent
	if slept != 0 {
		t.Errorf("slept %v while behind schedule, want 0", slept)
	}
	w.Wait(10, 50) // target wall t=5s, now at 3s -> sleep 2s
	if slept != 2*time.Second {
		t.Errorf("slept %v, want 2s (catch-up against the anchor)", slept)
	}
}

// TestWallClockRejectsNonPositiveCompression: misconfiguration must fail
// loudly rather than busy-loop or divide by zero.
func TestWallClockRejectsNonPositiveCompression(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Wall{Compression: 0}.Wait did not panic")
		}
	}()
	(&Wall{}).Wait(0, 1)
}
