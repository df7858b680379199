package sched

// Snapshot/Restore for Pollux: the serializable state a long-lived
// scheduler service needs to survive a restart without perturbing a single
// downstream decision — the counting-RNG state, the carried GA population
// keyed by job ID, the memoized speedup tables, the incremental dirty-set
// state, and the round counters.
//
// The snapshot structs deliberately contain no maps: every keyed
// collection is flattened to a slice sorted by its key, so the canonical
// JSON encoding is byte-stable across runs and the detmap invariant holds
// by construction. Floats ride through encoding/json, whose
// shortest-round-trip encoding decodes bit-identically; speedup cells are
// already stored as uint64 bit patterns and serialize exactly.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ga"
)

// PolluxSnapshot is the full serializable state of a Pollux instance.
// Options are not part of it: a snapshot is restored into a Pollux
// constructed with the same PolluxOptions, which the owning service
// derives from its own configuration.
type PolluxSnapshot struct {
	RNG detrand.State

	// PrevJobs and PrevPop are the cross-round GA seed carryover: the job
	// IDs aligned with every population matrix's rows.
	PrevJobs []int       `json:",omitempty"`
	PrevPop  []ga.Matrix `json:",omitempty"`

	// Tables are the memoized speedup tables, sorted by job ID.
	Tables []TableSnapshot `json:",omitempty"`

	// Inc is the incremental dirty-set state; nil when no incremental
	// round has committed.
	Inc *IncSnapshot `json:",omitempty"`

	SinceFull int
	LastStats RoundStats
}

// TableSnapshot serializes one job's memoized speedup table. Offsets,
// row widths, and the single-GPU denominator are derived deterministically
// from (Model, GPUCap, MaxK, Nodes) at restore, so only the cell contents
// travel.
type TableSnapshot struct {
	JobID  int
	Model  core.Model
	GPUCap int
	MaxK   int
	Nodes  int
	Cells  []uint64
	// RackCells is the cross-rack layer; nil when ensureRack never ran.
	RackCells []uint64 `json:",omitempty"`
}

// IncSnapshot serializes the incremental dirty-set state (incState); the
// ID index is rebuilt from IDs at restore.
type IncSnapshot struct {
	IDs  []int
	Sigs []SigSnapshot
	Rows ga.Matrix
	Cap  []int
}

// SigSnapshot is a job's change signature for dirty detection, stored and
// serialized as is: a refit (Params or φt move), an exploration-cap change,
// or a demand change all alter it.
type SigSnapshot struct {
	Model   core.Model
	GPUCap  int
	MinGPUs int
}

// Snapshot captures the scheduler's complete restorable state. The
// receiver must not be scheduling concurrently (callers snapshot between
// rounds, which is the only time the service's round lock is free).
func (p *Pollux) Snapshot() *PolluxSnapshot {
	s := &PolluxSnapshot{
		RNG:       p.src.State(),
		SinceFull: p.sinceFull,
		LastStats: p.lastStats,
	}
	s.PrevJobs = append([]int(nil), p.prevJobs...)
	for _, m := range p.prevPop {
		s.PrevPop = append(s.PrevPop, m.Clone())
	}
	ids := make([]int, 0, len(p.tables))
	for id := range p.tables {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := p.tables[id]
		ts := TableSnapshot{
			JobID:  id,
			Model:  t.model,
			GPUCap: t.gpuCap,
			MaxK:   t.maxK,
			Nodes:  t.nodes,
			Cells:  append([]uint64(nil), t.cells...),
		}
		if t.rackCells != nil {
			ts.RackCells = append([]uint64(nil), t.rackCells...)
		}
		s.Tables = append(s.Tables, ts)
	}
	if p.inc != nil {
		s.Inc = &IncSnapshot{
			IDs:  append([]int(nil), p.inc.ids...),
			Sigs: append([]SigSnapshot(nil), p.inc.sigs...),
			Rows: p.inc.rows.Clone(),
			Cap:  append([]int(nil), p.inc.cap...),
		}
	}
	return s
}

// Restore replaces the scheduler's state with a snapshot taken from a
// Pollux configured with the same PolluxOptions. After Restore, the next
// Schedule call behaves bit-identically to the call the snapshotted
// instance would have made. Shape mismatches (a snapshot from a different
// cluster or a hand-edited file) fail loudly and leave the receiver
// unchanged.
func (p *Pollux) Restore(s *PolluxSnapshot) error {
	for i, m := range s.PrevPop {
		if len(m) != len(s.PrevJobs) {
			return fmt.Errorf("sched: snapshot population matrix %d has %d rows for %d carried jobs", i, len(m), len(s.PrevJobs))
		}
	}
	tables := make(map[int]*speedupTable, len(s.Tables))
	for _, ts := range s.Tables {
		t := newSpeedupTable(ts.Model, ts.GPUCap, ts.MaxK, ts.Nodes)
		if len(ts.Cells) != len(t.cells) {
			return fmt.Errorf("sched: snapshot table for job %d has %d cells, dimensions imply %d", ts.JobID, len(ts.Cells), len(t.cells))
		}
		copy(t.cells, ts.Cells)
		if ts.RackCells != nil {
			t.ensureRack()
			if len(ts.RackCells) != len(t.rackCells) {
				return fmt.Errorf("sched: snapshot rack layer for job %d has %d cells, dimensions imply %d", ts.JobID, len(ts.RackCells), len(t.rackCells))
			}
			copy(t.rackCells, ts.RackCells)
		}
		tables[ts.JobID] = t
	}
	var inc *incState
	if s.Inc != nil {
		if len(s.Inc.Sigs) != len(s.Inc.IDs) || len(s.Inc.Rows) != len(s.Inc.IDs) {
			return fmt.Errorf("sched: snapshot incremental state misaligned: %d ids, %d sigs, %d rows",
				len(s.Inc.IDs), len(s.Inc.Sigs), len(s.Inc.Rows))
		}
		// Row by row: later rounds reuse these rows in the matrices they
		// keep (see incremental.go), so none may pin a shared backing array.
		rows, placed := make(ga.Matrix, len(s.Inc.Rows)), make([]core.Placement, len(s.Inc.Rows))
		for i, row := range s.Inc.Rows {
			rows[i], placed[i] = slices.Clone(row), PlacementOf(row)
		}
		inc = newIncState(append([]int(nil), s.Inc.IDs...), append([]SigSnapshot(nil), s.Inc.Sigs...),
			rows, placed, append([]int(nil), s.Inc.Cap...))
	}

	src := detrand.Restore(s.RNG)
	p.src = src
	p.rng = rand.New(src)
	p.prevJobs = append([]int(nil), s.PrevJobs...)
	p.prevPop = nil
	for _, m := range s.PrevPop {
		p.prevPop = append(p.prevPop, m.Clone())
	}
	p.tables = tables
	p.inc = inc
	p.sinceFull = s.SinceFull
	p.lastStats = s.LastStats
	return nil
}
