package sched

import "repro/internal/ga"

// Tiresias implements the non-resource-adaptive baseline (Sec. 2.3,
// Sec. 5.2 "Tiresias+TunedJobs"): a discretized two-dimensional
// least-attained-service scheduler. Jobs are grouped into priority queues
// by attained GPU-time service; lower attained service means higher
// priority, preventing head-of-line blocking by large jobs. Within a
// queue, jobs run in submission order. Each job always receives exactly
// the GPU count its user requested, co-located onto as few nodes as
// possible; jobs that do not fit are skipped (backfilling smaller jobs).
type Tiresias struct {
	// QueueThresholds are attained-service boundaries in GPU-seconds;
	// defaults are 1 and 10 GPU-hours, giving three queues.
	QueueThresholds []float64

	pack  packer
	queue []int // per view job: its queue
	start []int // per queue: where its jobs start in pack.order
}

// NewTiresias creates the baseline with the default queue discretization.
func NewTiresias() *Tiresias {
	return &Tiresias{QueueThresholds: []float64{1 * 3600, 10 * 3600}}
}

func (t *Tiresias) Name() string          { return "tiresias" }
func (t *Tiresias) AdaptsBatchSize() bool { return false }
func (t *Tiresias) ReadsModel() bool      { return false }

// queueOf returns the priority-queue index for a job (0 is highest).
func (t *Tiresias) queueOf(attained float64) int {
	for q, thr := range t.QueueThresholds {
		if attained < thr {
			return q
		}
	}
	return len(t.QueueThresholds)
}

// Schedule allocates user-requested GPU counts in discretized-LAS order.
func (t *Tiresias) Schedule(v *ClusterView) ga.Matrix {
	t.pack.reset(v.Capacity)
	// Queue by queue, and within a queue in snapshot order, which is
	// submission order in every deployment (traces are submit-sorted and
	// the testbed registers trainers as they arrive) — unless an admit
	// front end reordered the snapshot, in which case its priority (e.g.
	// earliest SLO deadline first) decides within-queue order. One pass
	// files each job under its queue, a second lays the queues out in
	// order (a stable counting sort). A job that does not fit is skipped,
	// so smaller jobs backfill.
	n := len(v.Jobs)
	t.queue = resize(t.queue, n)
	t.start = resize(t.start, len(t.QueueThresholds)+2)
	clear(t.start)
	for i := range v.Jobs {
		q := t.queueOf(v.Jobs[i].GPUTime)
		t.queue[i] = q
		t.start[q+1]++
	}
	for q := 1; q < len(t.start); q++ {
		t.start[q] += t.start[q-1]
	}
	order := resize(t.pack.order, n)
	for i, q := range t.queue {
		order[t.start[q]] = i
		t.start[q]++
	}
	t.pack.order = order
	m := make(ga.Matrix, n)
	for _, i := range order {
		m[i] = t.pack.place(v, i, v.Jobs[i].UserGPUs)
	}
	return m
}
