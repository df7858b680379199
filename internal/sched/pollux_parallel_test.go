package sched

import (
	"testing"

	"repro/internal/ga"
)

// TestPolluxWorkersDeterminism is the contract the parallel GA must keep:
// for a fixed seed, Workers: 1 and Workers: 8 produce identical Schedule
// output, including across intervals with population carry-over and warm
// speedup caches.
func TestPolluxWorkersDeterminism(t *testing.T) {
	run := func(workers int) []ga.Matrix {
		p := NewPollux(PolluxOptions{Population: 20, Generations: 10, Workers: workers}, 7)
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
			t.Errorf("round %d: Workers 1 vs 8 schedules differ:\n%v\n%v",
				i, serial[i], parallel[i])
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

func TestUtilityPopulationClamp(t *testing.T) {
	cases := []struct{ configured, want int }{
		{1, 1}, {2, 1}, {3, 1}, {4, 2}, {100, 50},
	}
	for _, c := range cases {
		if got := utilityPopulation(c.configured); got != c.want {
			t.Errorf("utilityPopulation(%d) = %d, want %d", c.configured, got, c.want)
		}
	}
}

func TestClusterUtilityTinyPopulation(t *testing.T) {
	// A Population: 1 configuration must stay a 1-member search (the old
	// code passed 1/2 = 0 to ga.New, which re-defaulted to 100) and still
	// produce a sane utility.
	v := viewWith(3, 4, 4)
	p := NewPollux(PolluxOptions{Population: 1, Generations: 3}, 10)
	u := p.ClusterUtility(v, 4, 3)
	if u < 0 || u > 1+1e-9 {
		t.Errorf("utility = %v, want in [0, 1]", u)
	}
}
