package cluster

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/checkpoint"
	"repro/internal/sched"
	"repro/internal/workload"
)

func checkpointPolicy(seed int64) *sched.Pollux {
	return sched.NewPollux(sched.PolluxOptions{Population: 15, Generations: 8}, seed)
}

// TestReplayCheckpointResumeBitIdentical is the acceptance bar for the
// checkpoint machinery, held to the same standard as
// TestReplayDeterminism: freezing a replay at a mid-trace scheduling
// round, serializing the whole deployment through the on-disk envelope,
// and resuming it in a fresh process state must produce a Result
// bit-identical to the uninterrupted run. Several cut times exercise
// different mixes of not-yet-arrived, running, and finished jobs; the
// front-end and RPC variants pin the admission log and the net/rpc
// transport through the same save/load/resume cycle.
func TestReplayCheckpointResumeBitIdentical(t *testing.T) {
	runCase := func(t *testing.T, tr workload.Trace, cfg ReplayConfig, cuts []float64) {
		straight, err := Replay(tr, checkpointPolicy(3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if straight.Summary.Completed == 0 {
			t.Fatal("straight-through run completed no jobs; cuts would not exercise running trainers")
		}
		for _, cut := range cuts {
			ck, err := ReplayToCheckpoint(tr, checkpointPolicy(3), cfg, cut)
			if err != nil {
				t.Fatalf("checkpoint at %.0fs: %v", cut, err)
			}
			// Round-trip through the real on-disk envelope so atomic write,
			// checksum, and canonical JSON encoding are all on the path.
			path := filepath.Join(t.TempDir(), "replay.ckpt")
			if err := checkpoint.Write(path, "replay", 1, ck); err != nil {
				t.Fatalf("write at %.0fs: %v", cut, err)
			}
			var loaded ReplayCheckpoint
			if _, err := checkpoint.Read(path, "replay", 1, &loaded); err != nil {
				t.Fatalf("read at %.0fs: %v", cut, err)
			}
			resumed, err := ResumeReplay(tr, checkpointPolicy(3), cfg, &loaded)
			if err != nil {
				t.Fatalf("resume from %.0fs: %v", cut, err)
			}
			if !reflect.DeepEqual(straight, resumed) {
				t.Errorf("resume from checkpoint at %.0fs diverged from straight-through run:\n%+v\nvs\n%+v",
					cut, straight.Summary, resumed.Summary)
			}
		}
	}

	t.Run("plain", func(t *testing.T) {
		tr := smallTrace(3, 10)
		if len(tr.Jobs) < 3 {
			t.Skip("trace too small after filtering")
		}
		runCase(t, tr, smallReplayCfg(3), []float64{300, 900, 2400})
	})
	t.Run("frontend", func(t *testing.T) {
		tr := tenantTrace(11)
		if len(tr.Jobs) < 8 {
			t.Skip("trace too small after filtering")
		}
		cfg := smallReplayCfg(11)
		cfg.FrontEnd = &admit.Options{
			Admission: admit.AdmitQuota,
			Quotas:    map[string]int{"batch": 4, "burst": 2},
			Priority:  admit.PrioritySLO,
		}
		runCase(t, tr, cfg, []float64{600})
	})
	t.Run("rpc", func(t *testing.T) {
		tr := smallTrace(3, 10)
		if len(tr.Jobs) < 3 {
			t.Skip("trace too small after filtering")
		}
		cfg := smallReplayCfg(3)
		cfg.OverRPC = true
		runCase(t, tr, cfg, []float64{900})
	})
}

// TestReplayCheckpointMismatchFailsLoudly: resuming under the wrong
// config, the wrong trace, or an unsupported policy must error, never
// silently start fresh.
func TestReplayCheckpointMismatchFailsLoudly(t *testing.T) {
	tr := smallTrace(3, 10)
	if len(tr.Jobs) < 3 {
		t.Skip("trace too small after filtering")
	}
	cfg := smallReplayCfg(3)
	ck, err := ReplayToCheckpoint(tr, checkpointPolicy(3), cfg, 900)
	if err != nil {
		t.Fatal(err)
	}

	wrongShape := cfg
	wrongShape.Nodes = 8
	if _, err := ResumeReplay(tr, checkpointPolicy(3), wrongShape, ck); err == nil {
		t.Error("resume into a different cluster shape accepted, want loud error")
	}

	short := tr
	short.Jobs = short.Jobs[:len(short.Jobs)-1]
	if _, err := ResumeReplay(short, checkpointPolicy(3), cfg, ck); err == nil {
		t.Error("resume with a truncated trace accepted, want loud error")
	}

	if _, err := ResumeReplay(tr, sched.NewTiresias(), cfg, ck); err == nil {
		t.Error("resume with a non-checkpointable policy accepted, want loud error")
	}
	if _, err := ReplayToCheckpoint(tr, sched.NewTiresias(), cfg, 900); err == nil {
		t.Error("checkpointing a non-checkpointable policy accepted, want loud error")
	}

	if _, err := ReplayToCheckpoint(tr, checkpointPolicy(3), cfg, 1e12); err == nil {
		t.Error("checkpoint time past the end of the trace accepted, want loud error")
	}
}

// TestResumedTrainerTicksOnItsPlacement: a trainer snapshot holds no
// placement, so a trainer resumed while it held GPUs must fetch its row on
// its first poll, whatever generation it last saw, and run that tick on
// the GPUs the ledger holds for it.
func TestResumedTrainerTicksOnItsPlacement(t *testing.T) {
	tr := smallTrace(3, 10)
	if len(tr.Jobs) < 3 {
		t.Skip("trace too small after filtering")
	}
	ck, err := ReplayToCheckpoint(tr, checkpointPolicy(3), smallReplayCfg(3), 1500)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newReplayRun(tr, checkpointPolicy(3), ck.Config)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.svc.RestoreSnapshot(ck.Service); err != nil {
		t.Fatal(err)
	}
	held := 0
	for i, ts := range ck.Tasks {
		trainer := r.tasks[i].tr
		if ts.Trainer == nil || ts.Finished {
			continue
		}
		want := allocOf(r.svc, trainer.Job)
		pl := sched.PlacementOf(want.Row)
		if pl.GPUs == 0 {
			continue
		}
		held++
		if err := trainer.restore(r.trans, ts.Trainer); err != nil {
			t.Fatal(err)
		}
		if _, err := trainer.tick(); err != nil {
			t.Fatal(err)
		}
		if got := trainer.job.Placement; got != pl {
			t.Errorf("%s (last saw generation %d, ledger at %d) ticked on %+v, want %+v", trainer.Job, ts.Trainer.LastGen, want.Generation, got, pl)
		}
	}
	if held == 0 {
		t.Fatal("no live trainer held GPUs at the cut; the test checks nothing")
	}
}

// TestServiceSnapshotShapeMismatchFailsLoudly: restoring a service
// snapshot into a service whose cluster has a different shape fails
// loudly — the direct restore-into-mismatched-cluster check under the
// replay-level guard.
func TestServiceSnapshotShapeMismatchFailsLoudly(t *testing.T) {
	svc := NewService(NewState([]int{4, 4, 4, 4}))
	svc.SetFrontEnd(nil)
	if err := svc.SubmitReport(Report{Job: "job-0", GPUCap: 4}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	snap := svc.Snapshot()

	fewer := NewService(NewState([]int{4, 4}))
	if err := fewer.RestoreSnapshot(snap); err == nil || !strings.Contains(err.Error(), "nodes") {
		t.Errorf("restore into fewer nodes: got %v, want node-count error", err)
	}
	smaller := NewService(NewState([]int{4, 4, 2, 4}))
	if err := smaller.RestoreSnapshot(snap); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("restore into smaller nodes: got %v, want capacity error", err)
	}
	ok := NewService(NewState([]int{4, 4, 4, 4}))
	if err := ok.RestoreSnapshot(snap); err != nil {
		t.Errorf("restore into matching shape failed: %v", err)
	}
}

// TestRestoreSnapshotRejectsCorruptSnapshots: a snapshot whose rows or
// registry cannot be what a Service wrote is refused with an error that
// names the fault, and the service it was offered to is left untouched.
func TestRestoreSnapshotRejectsCorruptSnapshots(t *testing.T) {
	good := func() *ServiceSnapshot {
		return &ServiceSnapshot{
			Capacity: []int{4, 4},
			Order:    []string{"a", "b"},
			Jobs: []JobSnapshot{
				{Report: Report{Job: "a", UserGPUs: 3}, HasAlloc: true, Row: []int{3, 0}, Generation: 2},
				{Report: Report{Job: "b", UserGPUs: 2}, HasAlloc: true, Row: []int{1, 1}, Generation: 5},
			},
		}
	}
	cases := []struct {
		name    string
		corrupt func(*ServiceSnapshot)
		want    string
	}{
		{"short row", func(s *ServiceSnapshot) { s.Jobs[1].Row = []int{1} }, "has 1 nodes"},
		{"long row", func(s *ServiceSnapshot) { s.Jobs[0].Row = []int{3, 0, 0} }, "has 3 nodes"},
		{"negative row", func(s *ServiceSnapshot) { s.Jobs[0].Row = []int{-1, 0} }, "-1 GPUs"},
		{"oversubscribed node", func(s *ServiceSnapshot) { s.Jobs[1].Row = []int{2, 1} }, "oversubscribed"},
		{"name registered twice", func(s *ServiceSnapshot) {
			s.Order[1] = "a"
			s.Jobs[1].Report.Job = "a"
		}, "twice"},
		{"report under another name", func(s *ServiceSnapshot) { s.Jobs[1].Report.Job = "c" }, "registered as"},
		{"jobs and order misaligned", func(s *ServiceSnapshot) { s.Order = s.Order[:1] }, "misaligned"},
		{"held row at generation 0", func(s *ServiceSnapshot) { s.Jobs[0].Generation = 0 }, "at generation 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := NewService(NewState([]int{4, 4}))
			if err := svc.SubmitReport(Report{Job: "resident", UserGPUs: 1}, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.ScheduleOnce(sched.NewTiresias(), 0); err != nil {
				t.Fatal(err)
			}
			before := svc.Snapshot()

			snap := good()
			tc.corrupt(snap)
			err := svc.RestoreSnapshot(snap)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want one naming %q", err, tc.want)
			}
			if after := svc.Snapshot(); !reflect.DeepEqual(before, after) {
				t.Errorf("refused restore changed the service:\n%+v\nto\n%+v", before, after)
			}
		})
	}

	// The uncorrupted snapshot restores, rows and generations included,
	// and replaces what the service held.
	svc := NewService(NewState([]int{4, 4}))
	if err := svc.SubmitReport(Report{Job: "resident"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := svc.RestoreSnapshot(good()); err != nil {
		t.Fatal(err)
	}
	if got := svc.Snapshot(); !reflect.DeepEqual(got, good()) {
		t.Errorf("restored service snapshots as %+v, want %+v", got, good())
	}
	if st := svc.Status(); st.GPUsUsed != 5 || st.Running != 2 || st.Jobs != 2 {
		t.Errorf("status after restore: %+v", st)
	}
}
