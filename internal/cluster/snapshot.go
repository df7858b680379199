package cluster

// Snapshot/restore for the cluster service and its trainers: the state a
// long-lived pollux-sched (or a mid-trace replay) needs to resume exactly
// where it stopped — the job registry in registration order, the latest
// reports, the ledger's allocation rows with their generations, the admit
// front end, and each live trainer's full control-loop state.
//
// As everywhere in the checkpoint machinery, keyed collections are
// flattened to slices in a deterministic order (here: the service's own
// registration order, which is itself part of the state — Pollux job IDs
// are positions in it) so the canonical JSON encoding is byte-stable.

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/admit"
	"repro/internal/agent"
	"repro/internal/detrand"
	"repro/internal/ga"
	"repro/internal/sim"
)

// JobSnapshot is one registered job's service-side state: its latest
// report and, when the ledger holds a row for it, that row and its
// generation counter. Jobs appear in registration order, which defines
// their stable scheduler-visible IDs.
type JobSnapshot struct {
	Report     Report
	HasAlloc   bool  `json:",omitempty"`
	Row        []int `json:",omitempty"`
	Generation int   `json:",omitempty"`
}

// ServiceSnapshot is the full serializable state of a Service and its
// cluster State. Each job's row is stored once, in Jobs. Snapshots from
// before the single ledger repeated the rows in a second list keyed by
// job name; decoding drops it.
type ServiceSnapshot struct {
	Capacity []int
	Jobs     []JobSnapshot `json:",omitempty"` // registration order
	Order    []string      `json:",omitempty"`
	FrontEnd *admit.FrontEndState
}

// Snapshot captures the service's complete restorable state. It takes
// the scheduling lock, so it never observes a round in flight.
func (s *Service) Snapshot() *ServiceSnapshot {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	s.state.mu.Lock()
	defer s.state.mu.Unlock()

	snap := &ServiceSnapshot{
		Capacity: slices.Clone(s.state.capacity),
		FrontEnd: s.fe.State(),
	}
	for _, j := range s.order {
		js := JobSnapshot{Report: j.report()}
		if j.p.row != nil {
			js.HasAlloc = true
			js.Row = slices.Clone(j.p.row)
			js.Generation = j.p.gen
		}
		snap.Order = append(snap.Order, j.p.job)
		snap.Jobs = append(snap.Jobs, js)
	}
	return snap
}

// RestoreSnapshot replaces the state of a Service whose State was built
// with the same capacity and whose front end was rebuilt from the same
// admit.Options. Every check runs before anything is replaced: a
// cluster-shape or front-end mismatch, a misaligned or repeated job name,
// a row of the wrong length and rows that oversubscribe a node each fail
// with their own error and leave the service as it was.
func (s *Service) RestoreSnapshot(snap *ServiceSnapshot) error {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	if len(s.state.capacity) != len(snap.Capacity) {
		return fmt.Errorf("cluster: snapshot has %d nodes, service has %d", len(snap.Capacity), len(s.state.capacity))
	}
	if !slices.Equal(s.state.capacity, snap.Capacity) {
		return fmt.Errorf("cluster: snapshot capacity %v does not match service capacity %v", snap.Capacity, s.state.capacity)
	}
	if len(snap.Jobs) != len(snap.Order) {
		return fmt.Errorf("cluster: snapshot misaligned: %d jobs for %d order entries", len(snap.Jobs), len(snap.Order))
	}
	// The registry and a ledger of its own are built beside the ones in
	// service, and the rows go through the install Commit uses, so a
	// snapshot that does not fit is refused before anything changes.
	ledger := NewState(snap.Capacity)
	jobs := make(map[string]*job, len(snap.Jobs))
	order := make([]*job, len(snap.Jobs))
	var live []*job
	var held []*placement // entries with a ledger row, and those rows
	var rows ga.Matrix
	for i, name := range snap.Order {
		js := &snap.Jobs[i]
		if js.Report.Job != name {
			return fmt.Errorf("cluster: snapshot job %d reports as %q but is registered as %q", i, js.Report.Job, name)
		}
		if jobs[name] != nil {
			return fmt.Errorf("cluster: snapshot registers job %q twice", name)
		}
		j := &job{p: ledger.at(name)}
		j.view.ID = i
		j.set(&js.Report)
		jobs[name], order[i] = j, j
		if !j.done {
			live = append(live, j)
		}
		if js.HasAlloc {
			held = append(held, j.p)
			rows = append(rows, slices.Clone(js.Row)) // the ledger keeps the slice
		}
	}
	if err := ledger.install(held, rows); err != nil {
		return fmt.Errorf("cluster: snapshot rows do not fit: %w", err)
	}
	if err := s.fe.RestoreState(snap.FrontEnd); err != nil {
		return err
	}
	for i, j := range order {
		if snap.Jobs[i].HasAlloc { // the install counted one change
			j.p.gen = snap.Jobs[i].Generation
		}
	}
	s.state.usage, s.state.rows = ledger.usage, ledger.rows
	s.jobs, s.order, s.live, s.round = jobs, order, live, 0
	return nil
}

// TrainerSnapshot is the full serializable state of a running Trainer:
// training progress, the agent with its fitted model and profile, the
// counting-RNG state, and the control-loop clocks.
type TrainerSnapshot struct {
	Job      string
	Submit   float64
	Progress float64
	GPUTime  float64
	Batch    int
	Done     bool

	RNG   detrand.State
	Agent *agent.Snapshot

	SimNow       float64
	RestartUntil float64
	NextReport   float64
	LastGen      int

	EffSum  float64
	TputSum float64
	GoodSum float64
	RunTime float64
}

// Snapshot captures the trainer's complete restorable state. It must run
// on the driving goroutine (or with the trainer's event loop idle), the
// same discipline as tick.
func (t *Trainer) Snapshot() *TrainerSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &TrainerSnapshot{
		Job:          t.Job,
		Submit:       t.submit,
		Progress:     t.job.Progress,
		GPUTime:      t.job.GPUTime,
		Batch:        t.job.Batch,
		Done:         t.done,
		RNG:          t.src.State(),
		Agent:        t.job.Agent.Snapshot(),
		SimNow:       t.simNow,
		RestartUntil: t.job.RestartUntil,
		NextReport:   t.nextReport,
		LastGen:      t.lastGen,
		EffSum:       t.job.EffSum,
		TputSum:      t.job.TputSum,
		GoodSum:      t.job.GoodSum,
		RunTime:      t.job.RunTime,
	}
}

// restore rebuilds the control-loop state from a snapshot against a
// transport. Unlike begin it sends no initial report — the service
// snapshot already holds the job's latest report — and the next tick
// continues exactly where the saved trainer stopped.
func (t *Trainer) restore(tr Transport, snap *TrainerSnapshot) error {
	if snap.Job != t.Job {
		return fmt.Errorf("cluster: trainer %q given snapshot for %q", t.Job, snap.Job)
	}
	ag, err := agent.FromSnapshot(snap.Agent)
	if err != nil {
		return fmt.Errorf("cluster: trainer %q: %w", t.Job, err)
	}
	t.transport = tr
	t.submit = snap.Submit
	t.src = detrand.Restore(snap.RNG)
	t.simNow = snap.SimNow
	t.nextReport = snap.NextReport
	t.lastGen = snap.LastGen
	t.mu.Lock()
	t.job = sim.NewJob(t.Spec, rand.New(t.src))
	t.job.Agent = ag
	t.job.Batch = snap.Batch
	t.job.RestartUntil = snap.RestartUntil
	t.job.Progress = snap.Progress
	t.job.GPUTime = snap.GPUTime
	t.job.EffSum = snap.EffSum
	t.job.TputSum = snap.TputSum
	t.job.GoodSum = snap.GoodSum
	t.job.RunTime = snap.RunTime
	t.done = snap.Done
	t.mu.Unlock()
	return nil
}
