package sched

// Snapshot/Restore for Pollux: the serializable state a long-lived
// scheduler service needs to survive a restart without perturbing a single
// downstream decision — the counting-RNG state, the carried GA population
// keyed by job ID, the memoized speedup tables, the incremental dirty-set
// state, and the round counters. The scheduler holds the per-job part of
// all of that in one record per job (jobRec); the format predates the
// records and spreads them over PrevJobs, Tables and Inc again.
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

// IncSnapshot serializes the incremental dirty-set state: incState and the
// signatures of the job records, whose IDs repeat PrevJobs.
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
	var withTable []*jobRec
	for _, rec := range p.recs {
		s.PrevJobs = append(s.PrevJobs, rec.id)
		if rec.table != nil {
			withTable = append(withTable, rec)
		}
	}
	for _, m := range p.prevPop {
		s.PrevPop = append(s.PrevPop, m.Clone())
	}
	sort.SliceStable(withTable, func(a, b int) bool { return withTable[a].id < withTable[b].id })
	for _, rec := range withTable {
		t := rec.table
		ts := TableSnapshot{
			JobID:  rec.id,
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
			IDs:  append([]int(nil), s.PrevJobs...),
			Sigs: make([]SigSnapshot, len(p.recs)),
			Rows: p.inc.rows.Clone(),
			Cap:  append([]int(nil), p.inc.cap...),
		}
		for i, rec := range p.recs {
			s.Inc.Sigs[i] = rec.sig
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
	recs, byID := make([]*jobRec, len(s.PrevJobs)), make(map[int]*jobRec, len(s.PrevJobs))
	for i, id := range s.PrevJobs {
		recs[i] = &jobRec{id: id, pos: i}
		byID[id] = recs[i]
	}
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
		if rec := byID[ts.JobID]; rec != nil { // a table is kept for a carried job only
			rec.table = t
		}
	}
	var inc *incState
	if s.Inc != nil {
		if len(s.Inc.Sigs) != len(s.Inc.IDs) || len(s.Inc.Rows) != len(s.Inc.IDs) {
			return fmt.Errorf("sched: snapshot incremental state misaligned: %d ids, %d sigs, %d rows",
				len(s.Inc.IDs), len(s.Inc.Sigs), len(s.Inc.Rows))
		}
		if !slices.Equal(s.Inc.IDs, s.PrevJobs) {
			return fmt.Errorf("sched: snapshot incremental state and carried population name different jobs")
		}
		// Row by row: later rounds reuse these rows in the matrices they
		// keep (see incremental.go), so none may pin a shared backing array.
		inc = &incState{rows: make(ga.Matrix, len(s.Inc.Rows)), cap: append([]int(nil), s.Inc.Cap...)}
		for i, row := range s.Inc.Rows {
			inc.rows[i] = slices.Clone(row)
			recs[i].sig, recs[i].placed = s.Inc.Sigs[i], PlacementOf(row)
		}
	}

	src := detrand.Restore(s.RNG)
	p.src = src
	p.rng = rand.New(src)
	p.prevPop = nil
	for _, m := range s.PrevPop {
		p.prevPop = append(p.prevPop, m.Clone())
	}
	p.recs, p.byID = recs, byID
	p.inc = inc
	p.sinceFull = s.SinceFull
	p.lastStats = s.LastStats
	return nil
}
