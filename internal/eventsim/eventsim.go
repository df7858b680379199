// Package eventsim is the discrete-event simulation kernel underlying the
// cluster simulator's event engine. Instead of stepping a fixed wall-clock
// tick, a simulation pushes timestamped events onto a priority queue and
// repeatedly pops the earliest one, jumping the clock directly between the
// moments at which something actually happens (job arrivals, scheduling
// rounds, agent reports, restart expiries, provisioning completions,
// decay-boundary crossings, job finishes).
//
// Determinism is part of the kernel contract. Events that share a
// timestamp are ordered by
//
//  1. class: cluster events before job events,
//  2. job ID: lowest first (job events only; cluster events carry job 0),
//  3. kind: lowest first, so e.g. the agent-report round of a scheduling
//     instant runs before the scheduling round itself,
//  4. insertion order (a monotone sequence number), as the final
//     tie-break.
//
// The kernel also supports O(1) lazy invalidation: predicted events (a
// job's closed-form finish time, say) carry the job's Version at
// prediction time; when the job's state changes, the simulation bumps the
// version and simply abandons the stale event when it surfaces, instead
// of deleting it from the middle of the heap.
package eventsim

// Class partitions events for deterministic tie-breaking at equal
// timestamps: all cluster-level events (scheduling rounds, agent reports,
// provisioning completions) run before any per-job event (arrivals,
// restart expiries, progress milestones) scheduled for the same instant.
type Class uint8

const (
	// ClassCluster marks cluster-level events.
	ClassCluster Class = iota
	// ClassJob marks per-job events.
	ClassJob
)

// Event is one timestamped entry in the queue. Kind, Job, and Version are
// opaque to the kernel except where they participate in ordering; the
// simulation layer defines its own kind enumeration and checks Version
// against per-job state to discard stale predictions.
type Event struct {
	Time  float64
	Class Class
	// Job is the owning job's ID for ClassJob events; ClassCluster events
	// leave it zero. Among job events at one instant, lower IDs run first.
	Job int
	// Kind orders events of the same class, job, and time: lower kinds
	// first.
	Kind int
	// Version tags predicted events for lazy invalidation; the kernel
	// ignores it when ordering.
	Version uint64

	seq uint64
}

// before is the kernel's strict ordering relation.
func (e Event) before(o Event) bool {
	//pollux:floateq-ok strict event ordering: exactly equal times fall through to the deterministic tie-breakers
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	if e.Class != o.Class {
		return e.Class < o.Class
	}
	if e.Job != o.Job {
		return e.Job < o.Job
	}
	if e.Kind != o.Kind {
		return e.Kind < o.Kind
	}
	return e.seq < o.seq
}

// Queue is a binary min-heap of events under the deterministic ordering
// above. The zero value is ready to use.
type Queue struct {
	items []Event
	seq   uint64
}

// Push inserts an event, stamping it with the next sequence number so
// otherwise-identical events pop in insertion order.
func (q *Queue) Push(e Event) {
	e.seq = q.seq
	q.seq++
	q.items = append(q.items, e)
	q.up(len(q.items) - 1)
}

// Pop removes and returns the earliest event. The second return is false
// when the queue is empty.
func (q *Queue) Pop() (Event, bool) {
	if len(q.items) == 0 {
		return Event{}, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top, true
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.items[i].before(q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		c := l
		if r < n && q.items[r].before(q.items[l]) {
			c = r
		}
		if !q.items[c].before(q.items[i]) {
			return
		}
		q.items[i], q.items[c] = q.items[c], q.items[i]
		i = c
	}
}
