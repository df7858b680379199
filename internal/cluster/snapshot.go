package cluster

// Snapshot/restore for the cluster service and its trainers: the state a
// long-lived pollux-sched (or a mid-trace replay) needs to resume exactly
// where it stopped — the job registry in registration order, the pending
// reports, the committed allocation rows with their generations, the
// placements bound in cluster State, the admit front end, and each live
// trainer's full control-loop state.
//
// As everywhere in the checkpoint machinery, keyed collections are
// flattened to slices in a deterministic order (here: the service's own
// registration order, which is itself part of the state — Pollux job IDs
// are positions in it) so the canonical JSON encoding is byte-stable.

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/admit"
	"repro/internal/agent"
	"repro/internal/detrand"
)

// JobSnapshot is one registered job's service-side state: its latest
// report and, when an allocation row has been committed for it, that row
// and its generation counter. Jobs appear in registration order, which
// defines their stable scheduler-visible IDs.
type JobSnapshot struct {
	Report     Report
	HasAlloc   bool  `json:",omitempty"`
	Row        []int `json:",omitempty"`
	Generation int   `json:",omitempty"`
}

// PlacedJob is one bound placement in cluster State, sorted by job name.
type PlacedJob struct {
	Job string
	Row []int
}

// ServiceSnapshot is the full serializable state of a Service and its
// cluster State.
type ServiceSnapshot struct {
	Capacity []int
	Placed   []PlacedJob   `json:",omitempty"`
	Jobs     []JobSnapshot `json:",omitempty"` // registration order
	Order    []string      `json:",omitempty"`
	FrontEnd *admit.FrontEndState
}

// Snapshot captures the service's complete restorable state. It takes
// the scheduling lock, so it never observes a round in flight.
func (s *Service) Snapshot() *ServiceSnapshot {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	capacity, placed := s.state.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()

	snap := &ServiceSnapshot{
		Capacity: capacity,
		Order:    append([]string(nil), s.order...),
		FrontEnd: s.fe.State(),
	}
	names := make([]string, 0, len(placed))
	for job := range placed {
		names = append(names, job)
	}
	sort.Strings(names)
	for _, job := range names {
		snap.Placed = append(snap.Placed, PlacedJob{Job: job, Row: placed[job]})
	}
	for _, name := range s.order {
		js := JobSnapshot{Report: s.reports[name]}
		if a, ok := s.allocs[name]; ok {
			js.HasAlloc = true
			js.Row = append([]int(nil), a.Row...)
			js.Generation = a.Generation
		}
		snap.Jobs = append(snap.Jobs, js)
	}
	return snap
}

// RestoreSnapshot applies a saved state to a freshly constructed Service
// whose State was built with the same capacity and whose front end was
// rebuilt from the same admit.Options. A cluster-shape or front-end
// mismatch fails loudly and leaves the service unusable rather than
// silently starting fresh.
func (s *Service) RestoreSnapshot(snap *ServiceSnapshot) error {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	cur := s.state.Capacity()
	if len(cur) != len(snap.Capacity) {
		return fmt.Errorf("cluster: snapshot has %d nodes, service has %d", len(snap.Capacity), len(cur))
	}
	for n := range cur {
		if cur[n] != snap.Capacity[n] {
			return fmt.Errorf("cluster: snapshot capacity %v does not match service capacity %v", snap.Capacity, cur)
		}
	}
	if len(snap.Jobs) != len(snap.Order) {
		return fmt.Errorf("cluster: snapshot misaligned: %d jobs for %d order entries", len(snap.Jobs), len(snap.Order))
	}
	if err := s.fe.RestoreState(snap.FrontEnd); err != nil {
		return err
	}
	for _, p := range snap.Placed {
		if err := s.state.Bind(p.Job, p.Row); err != nil {
			return fmt.Errorf("cluster: snapshot placement for %q does not fit: %w", p.Job, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.order = append([]string(nil), snap.Order...)
	s.reports = make(map[string]Report, len(snap.Jobs))
	s.allocs = make(map[string]Allocation, len(snap.Jobs))
	s.ids = make(map[string]int, len(snap.Order))
	for i, name := range snap.Order {
		s.ids[name] = i
		js := snap.Jobs[i]
		if js.Report.Job != name {
			return fmt.Errorf("cluster: snapshot job %d reports as %q but is registered as %q", i, js.Report.Job, name)
		}
		s.reports[name] = js.Report
		if js.HasAlloc {
			s.allocs[name] = Allocation{Row: append([]int(nil), js.Row...), Generation: js.Generation}
		}
	}
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
		Progress:     t.progress,
		GPUTime:      t.gpuTime,
		Batch:        t.batch,
		Done:         t.done,
		RNG:          t.src.State(),
		Agent:        t.ag.Snapshot(),
		SimNow:       t.simNow,
		RestartUntil: t.restartUntil,
		NextReport:   t.nextReport,
		LastGen:      t.lastGen,
		TputSum:      t.tputSum,
		GoodSum:      t.goodSum,
		RunTime:      t.runTime,
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
	if t.ReportEvery <= 0 {
		t.ReportEvery = 30
	}
	t.transport = tr
	t.submit = snap.Submit
	t.src = detrand.Restore(snap.RNG)
	t.rng = rand.New(t.src)
	t.ag = ag
	t.simNow = snap.SimNow
	t.restartUntil = snap.RestartUntil
	t.nextReport = snap.NextReport
	t.lastGen = snap.LastGen
	t.tputSum = snap.TputSum
	t.goodSum = snap.GoodSum
	t.runTime = snap.RunTime
	t.mu.Lock()
	t.progress = snap.Progress
	t.gpuTime = snap.GPUTime
	t.batch = snap.Batch
	t.done = snap.Done
	t.mu.Unlock()
	return nil
}
