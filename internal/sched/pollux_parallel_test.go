package sched

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/models"
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

// TestSpeedupTableCachedAcrossRounds pins what a job's speedup table
// holds from round to round: every cell computed for an unchanged model
// stays; after a refit no cell of the old model is left and every computed
// cell is the new model's Model.Speedup; a refit leaves other jobs' cells
// as they were.
func TestSpeedupTableCachedAcrossRounds(t *testing.T) {
	v := viewWith(3, 4, 4)
	p := NewPollux(PolluxOptions{Population: 10, Generations: 5}, 8)
	p.Schedule(v)
	table := func(i int) *speedupTable { return p.byID[v.Jobs[i].ID].table }
	if table(0) == nil || table(1) == nil {
		t.Fatal("no speedup table cached after Schedule")
	}
	// kept reports the computed cells of before that the table lost or
	// changed.
	kept := func(label string, tab *speedupTable, before []uint64) {
		t.Helper()
		set := 0
		for i, c := range before {
			if c == unsetCell {
				continue
			}
			set++
			if tab.cells[i] != c {
				t.Errorf("%s: cell %d is %#x, was %#x", label, i, tab.cells[i], c)
			}
		}
		if set == 0 {
			t.Fatalf("%s: no cell was computed", label)
		}
	}

	// Unchanged model: the computed cells are reused.
	before := slices.Clone(table(0).cells)
	p.Schedule(v)
	kept("unchanged model", table(0), before)

	// A model refit (here: the reported noise scale moves) drops exactly
	// that job's cells.
	other := slices.Clone(table(1).cells)
	v.Jobs[0].Model.Phi *= 2
	p.Schedule(v)
	tab, model := table(0), v.Jobs[0].Model
	if tab.model != model {
		t.Fatalf("table model %+v, want the refit %+v", tab.model, model)
	}
	computed := 0
	for k := 0; k <= tab.kCap; k++ {
		for n := 0; n <= min(k, tab.nodes); n++ {
			bits := tab.cells[tab.offs[k]+n]
			if bits == unsetCell {
				continue
			}
			computed++
			if want := model.Speedup(core.Placement{GPUs: k, Nodes: n}); bits != math.Float64bits(want) {
				t.Errorf("refit: cell (%d GPUs, %d nodes) = %v, the model's speedup is %v", k, n, math.Float64frombits(bits), want)
			}
		}
	}
	if computed == 0 {
		t.Error("refit: the round computed no cell of the new model")
	}
	kept("unrelated job", table(1), other)
}

// TestSpeedupTableResetMatchesFresh: a table reset for a new model is the
// table newSpeedupTable builds for it, field by field and in snapshot
// bytes, before and after the same lookups, the cross-rack layer included;
// and the reset layer's array is the one ensureRack fills again.
func TestSpeedupTableResetMatchesFresh(t *testing.T) {
	old := models.ByName("resnet18").GoodputModel(0.5)
	model := old
	model.Phi *= 2
	const gpuCap, maxK, nodes = 12, 16, 8
	lookups := func(tab *speedupTable) {
		tab.ensureRack()
		for k := 1; k <= gpuCap; k++ {
			tab.Speedup(k, min(k, 4))
			tab.SpeedupRack(k, min(k, nodes), 2)
		}
	}
	reset := newSpeedupTable(old, gpuCap, maxK, nodes)
	lookups(reset)
	layer := &reset.rackCells[0]
	reset.reset(model)
	fresh := newSpeedupTable(model, gpuCap, maxK, nodes)

	snapshot := func(tab *speedupTable) []byte {
		p := NewPollux(PolluxOptions{}, 1)
		rec := &jobRec{id: 7, table: tab}
		p.recs, p.byID[rec.id] = []*jobRec{rec}, rec
		b, err := json.Marshal(p.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	same := func(label string) {
		t.Helper()
		a, b := *reset, *fresh
		a.rackSpare, b.rackSpare = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: reset table %+v, fresh table %+v", label, a, b)
		}
		if ra, rb := snapshot(reset), snapshot(fresh); !bytes.Equal(ra, rb) {
			t.Errorf("%s: reset table snapshots as\n%s\nfresh one as\n%s", label, ra, rb)
		}
	}
	if reset.rackCells != nil {
		t.Error("reset kept the cross-rack layer")
	}
	same("after reset")
	lookups(reset)
	lookups(fresh)
	same("after the same lookups")
	if &reset.rackCells[0] != layer {
		t.Error("ensureRack allocated a new cross-rack layer after a reset")
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
