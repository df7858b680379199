package eventsim

import (
	"math/rand"
	"sort"
	"testing"
)

func drain(q *Queue) []Event {
	var out []Event
	for {
		e, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func TestQueueOrdersByTime(t *testing.T) {
	var q Queue
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		q.Push(Event{Time: tm})
	}
	got := drain(&q)
	for i, e := range got {
		//pollux:floateq-ok times are exact small integers pushed in; the pop must return them verbatim
		if e.Time != float64(i+1) {
			t.Fatalf("pop %d: time = %v, want %v", i, e.Time, i+1)
		}
	}
}

func TestClusterEventsBeforeJobEventsAtEqualTime(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 60, Class: ClassJob, Job: 1})
	q.Push(Event{Time: 60, Class: ClassCluster, Kind: 2})
	q.Push(Event{Time: 60, Class: ClassJob, Job: 0})
	q.Push(Event{Time: 60, Class: ClassCluster, Kind: 1})
	got := drain(&q)
	want := []Event{
		{Time: 60, Class: ClassCluster, Kind: 1},
		{Time: 60, Class: ClassCluster, Kind: 2},
		{Time: 60, Class: ClassJob, Job: 0},
		{Time: 60, Class: ClassJob, Job: 1},
	}
	for i := range want {
		if got[i].Class != want[i].Class || got[i].Kind != want[i].Kind || got[i].Job != want[i].Job {
			t.Errorf("pop %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJobEventsOrderByLowestID(t *testing.T) {
	var q Queue
	for _, id := range []int{7, 2, 9, 4} {
		q.Push(Event{Time: 10, Class: ClassJob, Job: id})
	}
	got := drain(&q)
	want := []int{2, 4, 7, 9}
	for i, e := range got {
		if e.Job != want[i] {
			t.Errorf("pop %d: job = %d, want %d", i, e.Job, want[i])
		}
	}
}

func TestKindBreaksTiesWithinJob(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 10, Class: ClassJob, Job: 3, Kind: 5})
	q.Push(Event{Time: 10, Class: ClassJob, Job: 3, Kind: 1})
	got := drain(&q)
	if got[0].Kind != 1 || got[1].Kind != 5 {
		t.Errorf("kinds popped as %d, %d; want 1, 5", got[0].Kind, got[1].Kind)
	}
}

func TestInsertionOrderIsFinalTieBreak(t *testing.T) {
	var q Queue
	for v := uint64(0); v < 5; v++ {
		q.Push(Event{Time: 1, Class: ClassJob, Job: 1, Version: v})
	}
	got := drain(&q)
	for i, e := range got {
		if e.Version != uint64(i) {
			t.Errorf("pop %d: version = %d, want %d (FIFO among identical events)", i, e.Version, i)
		}
	}
}

// TestQueueMatchesReferenceSort fuzzes the heap against a stable sort of
// the same events under the documented ordering.
func TestQueueMatchesReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var q Queue
		n := 1 + rng.Intn(200)
		events := make([]Event, n)
		for i := range events {
			events[i] = Event{
				Time:    float64(rng.Intn(10)),
				Class:   Class(rng.Intn(2)),
				Job:     rng.Intn(4),
				Kind:    rng.Intn(3),
				Version: uint64(i), // identifies insertion order
			}
			q.Push(events[i])
		}
		want := append([]Event(nil), events...)
		sort.SliceStable(want, func(a, b int) bool {
			ea, eb := want[a], want[b]
			//pollux:floateq-ok reference comparator mirrors Event.before; exactly equal times are genuine ties
			if ea.Time != eb.Time {
				return ea.Time < eb.Time
			}
			if ea.Class != eb.Class {
				return ea.Class < eb.Class
			}
			if ea.Job != eb.Job {
				return ea.Job < eb.Job
			}
			return ea.Kind < eb.Kind
		})
		got := drain(&q)
		if len(got) != n {
			t.Fatalf("trial %d: drained %d events, want %d", trial, len(got), n)
		}
		for i := range got {
			if got[i].Version != want[i].Version {
				t.Fatalf("trial %d pop %d: event %d, want %d", trial, i, got[i].Version, want[i].Version)
			}
		}
	}
}
