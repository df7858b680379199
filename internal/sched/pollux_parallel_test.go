package sched

import (
	"testing"

	"repro/internal/ga"
	"repro/internal/testutil"
)

// TestPolluxWorkersDeterminism is the contract the parallel GA must keep:
// for a fixed seed, GOMAXPROCS 1 and 8 produce identical Schedule output,
// including across intervals with population carry-over and warm speedup
// caches.
func TestPolluxWorkersDeterminism(t *testing.T) {
	run := func(workers int) []ga.Matrix {
		testutil.SetProcs(t, workers)
		p := NewPollux(PolluxOptions{Population: 20, Generations: 10}, 7)
		var out []ga.Matrix
		v := viewWith(6, 4, 4)
		for round := 0; round < 3; round++ {
			m := p.Schedule(v)
			out = append(out, m)
			v.Current = m // apply, so restart penalties and seeds engage
		}
		return out
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if !serial[i].Equal(parallel[i]) {
			t.Errorf("round %d: GOMAXPROCS 1 vs 8 schedules differ:\n%v\n%v",
				i, serial[i], parallel[i])
		}
	}
}

// TestPolluxScorersDeterminism is TestPolluxWorkersDeterminism at a shape
// whose generations score enough cells for the GA to start scorers (96
// jobs on 32 nodes at population 100), so that the node-level fitness runs
// while the caller repairs later offspring, as in svc_round_full32.
func TestPolluxScorersDeterminism(t *testing.T) {
	run := func(workers int) []ga.Matrix {
		testutil.SetProcs(t, workers)
		p := NewPollux(PolluxOptions{Population: 100, Generations: 3}, 9)
		var out []ga.Matrix
		v := viewWith(96, 32, 4)
		for round := 0; round < 2; round++ {
			m := p.Schedule(v)
			out = append(out, m)
			v.Current = m
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 4} {
		for i, m := range run(workers) {
			if !serial[i].Equal(m) {
				t.Errorf("round %d: GOMAXPROCS 1 vs %d schedules differ", i, workers)
			}
		}
	}
}

func TestSpeedupTableCachedAcrossRounds(t *testing.T) {
	v := viewWith(3, 4, 4)
	p := NewPollux(PolluxOptions{Population: 10, Generations: 5}, 8)
	p.Schedule(v)
	first := p.byID[v.Jobs[0].ID].table
	if first == nil {
		t.Fatal("no speedup table cached after Schedule")
	}
	// Unchanged model: the table (with its computed cells) is reused.
	p.Schedule(v)
	if p.byID[v.Jobs[0].ID].table != first {
		t.Error("speedup table rebuilt despite unchanged model")
	}
	// A model refit (here: the reported noise scale moves) invalidates
	// exactly that job's table.
	keep := p.byID[v.Jobs[1].ID].table
	v.Jobs[0].Model.Phi *= 2
	p.Schedule(v)
	if p.byID[v.Jobs[0].ID].table == first {
		t.Error("speedup table not invalidated by model change")
	}
	if p.byID[v.Jobs[1].ID].table != keep {
		t.Error("unrelated job's table invalidated")
	}
}

func TestSpeedupTablePrunedForDepartedJobs(t *testing.T) {
	v := viewWith(4, 4, 4)
	p := NewPollux(PolluxOptions{Population: 10, Generations: 5}, 9)
	p.Schedule(v)
	if len(p.Snapshot().Tables) != 4 {
		t.Fatalf("cached tables = %d, want 4", len(p.Snapshot().Tables))
	}
	small := viewWith(2, 4, 4) // jobs 2 and 3 departed
	p.Schedule(small)
	if len(p.Snapshot().Tables) != 2 || len(p.byID) != 2 {
		t.Errorf("cached tables after departures = %d over %d records, want 2", len(p.Snapshot().Tables), len(p.byID))
	}
	empty := &ClusterView{Capacity: v.Capacity}
	p.Schedule(empty)
	if len(p.Snapshot().Tables) != 0 || len(p.byID) != 0 {
		t.Errorf("cached tables after empty view = %d over %d records, want 0", len(p.Snapshot().Tables), len(p.byID))
	}
}
