// Package cluster is the in-memory testbed runtime standing in for the
// paper's Kubernetes deployment (Sec. 4.3): nodes with GPUs, pod-like
// replica placements with bind/evict lifecycle and checkpoint-restart, a
// PolluxSched control loop, and a net/rpc boundary over which PolluxAgents
// report goodput functions and receive allocations — the same
// agent/scheduler split as the real system, at laptop scale.
//
// Training itself is simulated: each job's Trainer advances a model-zoo
// spec's ground truth under a configurable time compression, profiling
// noisy iteration times and gradient statistics exactly as the simulator
// does, but across real goroutines and a real network socket.
package cluster

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ga"
)

// State is the placement ledger, the "API server" of the toy cluster: the
// one place a job's allocation row is stored. It owns the per-node
// capacity, each job's row with its generation counter, and the running
// per-node usage totals every install is checked against. A Service
// built over it guards its job registry with the same lock, so a
// scheduling round, a report and a status read each see the registry and
// the ledger together.
//
// A row in the ledger is an immutable value: install replaces a job's row
// with the slice it is given and nothing ever writes a cell of an installed
// row, so a round's view and the scheduler may hold the same slice outside
// the lock (docs/architecture.md, "Pass budget and ownership").
type State struct {
	mu       sync.Mutex
	capacity []int
	usage    []int // per-node sum of all rows
	rows     map[string]*placement
	zero     []int // the all-zero row every job without GPUs shares
}

// placement is one job's ledger entry. The generation counts the row's
// changes, so a polling trainer detects a re-allocation and checkpoints.
type placement struct {
	job string
	row []int // nil until the first install; never written, a change installs another slice
	gen int
}

// NewState creates a cluster with the given per-node GPU capacities.
func NewState(capacity []int) *State {
	return &State{
		capacity: slices.Clone(capacity),
		usage:    make([]int, len(capacity)),
		rows:     make(map[string]*placement),
		zero:     make([]int, len(capacity)),
	}
}

// Allocation returns the job's generation and, when the caller's have is
// another generation, a copy of its row; a poll at the current generation
// gets a nil row, since the row it holds has not changed. A job the ledger
// has never held a row for is all zeros at generation 0, so a caller that
// holds nothing yet polls with have 0. have -1 always gets the row.
func (s *State) Allocation(job string, have int) Allocation {
	s.mu.Lock()
	defer s.mu.Unlock()
	var a Allocation
	row := s.zero
	if p := s.rows[job]; p != nil && p.row != nil {
		row, a.Generation = p.row, p.gen
	}
	if have != a.Generation {
		a.Row = slices.Clone(row)
	}
	return a
}

// at returns the job's ledger entry, which holds no row until one is
// installed. The caller holds s.mu.
func (s *State) at(job string) *placement {
	p := s.rows[job]
	if p == nil {
		p = &placement{job: job}
		s.rows[job] = p
	}
	return p
}

// install is the ledger's one write path: it replaces the rows of the
// given entries and advances their generations. The new rows are checked
// against the usage totals first, so rows held by jobs outside the call
// count, and a refused install leaves the ledger as it was. Each entry may
// be given once. The ledger keeps the slices it is given, so the caller
// must never write them again. The caller holds s.mu.
func (s *State) install(ps []*placement, rows ga.Matrix) error {
	if len(ps) != len(rows) {
		return fmt.Errorf("cluster: %d jobs but %d rows", len(ps), len(rows))
	}
	usage := slices.Clone(s.usage)
	for i, p := range ps {
		if len(rows[i]) != len(s.capacity) {
			return fmt.Errorf("cluster: allocation for %q has %d nodes, cluster has %d", p.job, len(rows[i]), len(s.capacity))
		}
		for n, g := range rows[i] {
			if g < 0 {
				return fmt.Errorf("cluster: allocation for %q has %d GPUs on node %d", p.job, g, n)
			}
			usage[n] += g
		}
		for n, g := range p.row {
			usage[n] -= g
		}
	}
	for n, u := range usage {
		if u > s.capacity[n] {
			return fmt.Errorf("cluster: node %d oversubscribed: %d > %d", n, u, s.capacity[n])
		}
	}
	for i, p := range ps {
		p.row = rows[i]
		p.gen++
	}
	s.usage = usage
	return nil
}
