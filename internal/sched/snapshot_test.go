package sched

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/testutil"
)

// runRounds runs n rounds against v, feeding each committed matrix back
// as the next round's current allocation, and returns the JSON-encoded
// matrices plus the per-round stats for bit-level comparison.
func runRounds(p *Pollux, v *ClusterView, n int) (mats []string, stats []RoundStats) {
	for r := 0; r < n; r++ {
		m := p.Schedule(v)
		v.Current = m
		b, _ := json.Marshal(m)
		mats = append(mats, string(b))
		stats = append(stats, p.LastRoundStats())
	}
	return mats, stats
}

// cloneView deep-copies a view so two schedulers can run the same rounds
// independently.
func cloneView(v *ClusterView) *ClusterView {
	out := &ClusterView{
		Now:      v.Now,
		Capacity: append([]int(nil), v.Capacity...),
		Jobs:     append([]JobView(nil), v.Jobs...),
		Current:  v.Current.Clone(),
	}
	return out
}

// snapshotModes are the option sets the round-trip is pinned under: the
// default full re-optimization, incremental dirty-set rounds, and the
// rack-hierarchical path, each at serial and parallel fitness workers
// (GOMAXPROCS procs).
var snapshotModes = []struct {
	name  string
	opts  PolluxOptions
	procs int
}{
	{"flat", PolluxOptions{Population: 20, Generations: 10}, 1},
	{"incremental", PolluxOptions{Population: 20, Generations: 10, Incremental: true, FullEvery: 3}, 1},
	{"incremental-rack", PolluxOptions{Population: 20, Generations: 10, Incremental: true, FullEvery: 3, RackSize: 2}, 1},
	{"flat-parallel", PolluxOptions{Population: 20, Generations: 10}, 4},
	{"incremental-rack-parallel", PolluxOptions{Population: 20, Generations: 10, Incremental: true, FullEvery: 3, RackSize: 2}, 4},
}

// TestSnapshotRoundTripBitIdentical is the scheduler-level checkpoint
// verifier: after any number of rounds, Snapshot → JSON → Restore into a
// fresh Pollux must leave the restored instance producing bit-identical
// matrices and round stats to the uninterrupted one, under every round
// mode and worker count.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	for _, mode := range snapshotModes {
		t.Run(mode.name, func(t *testing.T) {
			testutil.SetProcs(t, mode.procs)
			const warm, tail = 4, 4
			v := viewWith(6, 8, 4)
			p := NewPollux(mode.opts, 17)
			runRounds(p, v, warm)

			// Serialize through actual JSON bytes, as the checkpoint file
			// does, so float and uint64 round-tripping is part of the test.
			raw, err := json.Marshal(p.Snapshot())
			if err != nil {
				t.Fatalf("marshal snapshot: %v", err)
			}
			var snap PolluxSnapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatalf("unmarshal snapshot: %v", err)
			}
			restored := NewPollux(mode.opts, 999) // seed overwritten by Restore
			if err := restored.Restore(&snap); err != nil {
				t.Fatalf("restore: %v", err)
			}

			vCont := cloneView(v)
			wantM, wantS := runRounds(p, v, tail)
			gotM, gotS := runRounds(restored, vCont, tail)
			if !reflect.DeepEqual(wantM, gotM) {
				t.Fatalf("restored scheduler diverged from uninterrupted run:\nwant %v\ngot  %v", wantM, gotM)
			}
			if !reflect.DeepEqual(wantS, gotS) {
				t.Fatalf("restored round stats diverged:\nwant %+v\ngot  %+v", wantS, gotS)
			}
		})
	}
}

// TestSnapshotShapeMismatchFailsLoudly pins the loud-failure contract for
// snapshots that do not match the receiving configuration.
func TestSnapshotShapeMismatchFailsLoudly(t *testing.T) {
	v := viewWith(4, 4, 4)
	p := NewPollux(PolluxOptions{Population: 15, Generations: 5}, 3)
	p.Schedule(v)
	s := p.Snapshot()

	corrupt := *s
	corrupt.Tables = append([]TableSnapshot(nil), s.Tables...)
	corrupt.Tables[0].Cells = corrupt.Tables[0].Cells[:1]
	if err := NewPollux(PolluxOptions{Population: 15, Generations: 5}, 3).Restore(&corrupt); err == nil {
		t.Fatal("restore with truncated table cells succeeded, want loud error")
	}

	corrupt2 := *s
	corrupt2.PrevJobs = s.PrevJobs[:1]
	if err := NewPollux(PolluxOptions{Population: 15, Generations: 5}, 3).Restore(&corrupt2); err == nil {
		t.Fatal("restore with misaligned population succeeded, want loud error")
	}
}
