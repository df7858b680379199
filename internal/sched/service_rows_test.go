package sched_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ga"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/testutil"
)

// sharedRows is the policy handed to the service: Pollux, with every row
// that crosses Schedule journaled and, before each call, the number of
// jobs counted whose Current row is the very slice the scheduler kept for
// them (known) out of those it kept a row for at all.
type sharedRows struct {
	*sched.Pollux
	journal     *testutil.RowJournal
	known, same int
}

func (s *sharedRows) Schedule(v *sched.ClusterView) ga.Matrix {
	ids, rows := s.CommittedRows()
	at := make(map[int]int, len(ids))
	for pi, id := range ids {
		at[id] = pi
	}
	s.known, s.same = 0, 0
	for i, j := range v.Jobs {
		if pi, ok := at[j.ID]; ok {
			s.known++
			if ga.SameRow(v.Current[i], rows[pi]) {
				s.same++
			}
		}
	}
	s.journal.See(v.Current)
	m := s.Pollux.Schedule(v)
	s.journal.See(m)
	return m
}

// TestServiceRowsConvergeToOneSlice drives cluster.Service through
// runtime.Step rounds under incremental rack rounds, with a refit, a Done
// report and an arrival before each, and a checkpoint of service and
// scheduler restored into fresh ones half way. No row seen in a view (the
// ledger's rows) or in a Schedule result is ever written afterwards; and
// the three holders share: at the start of every round each surviving
// job's Current row is the slice the scheduler kept for it. The round
// after a restore is the exception — ledger and scheduler decode their
// rows separately, equal in cells only — and the one after that has
// converged again, because a clean job's row comes back as the view's.
func TestServiceRowsConvergeToOneSlice(t *testing.T) {
	const nodes, nJobs, rounds, restoreAt = 16, 60, 24, 12
	opts := sched.PolluxOptions{Population: 10, Generations: 5, Incremental: true, FullEvery: -1, RackSize: 4, Workers: 1}
	capacity := make([]int, nodes)
	for n := range capacity {
		capacity[n] = 4
	}
	zoo := models.Zoo()
	serial := 0
	newJob := func() cluster.Report {
		spec := zoo[serial%len(zoo)]
		r := cluster.Report{
			Job: fmt.Sprintf("job-%03d", serial), Phi: spec.Phi(0.1 + 0.01*float64(serial%70)),
			M0: spec.M0, MaxBatchPerGPU: spec.MaxBatchPerGPU, MaxBatchGlobal: spec.MaxBatchGlobal,
			GPUCap: 4 << (serial % 3), UserGPUs: 1, UserBatch: spec.M0,
		}
		copy(r.Params[:], spec.Truth.Vector())
		serial++
		return r
	}
	svc := cluster.NewService(cluster.NewState(capacity))
	var live []cluster.Report
	submit := func(r cluster.Report) {
		t.Helper()
		if err := svc.SubmitReport(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nJobs; i++ {
		live = append(live, newJob())
		submit(live[i])
	}
	var journal testutil.RowJournal
	policy := &sharedRows{Pollux: sched.NewPollux(opts, 11), journal: &journal}

	for r := 0; r < rounds; r++ {
		if r == restoreAt {
			sb, err := json.Marshal(svc.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			pb, err := json.Marshal(policy.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var ss cluster.ServiceSnapshot
			var ps sched.PolluxSnapshot
			if err := json.Unmarshal(sb, &ss); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(pb, &ps); err != nil {
				t.Fatal(err)
			}
			svc = cluster.NewService(cluster.NewState(capacity))
			if err := svc.RestoreSnapshot(&ss); err != nil {
				t.Fatal(err)
			}
			policy.Pollux = sched.NewPollux(opts, 0)
			if err := policy.Restore(&ps); err != nil {
				t.Fatal(err)
			}
		}
		if r > 0 {
			// A refit, a departure, an arrival.
			k := (7 * r) % len(live)
			live[k].Phi *= 1.25
			submit(live[k])
			d := (13 * r) % len(live)
			live[d].Done = true
			submit(live[d])
			live[d] = newJob()
			submit(live[d])
		}
		n, err := svc.ScheduleOnce(policy, 60*float64(r))
		if err != nil || n != len(live) {
			t.Fatalf("round %d: scheduled %d of %d jobs: %v", r, n, len(live), err)
		}
		if st := policy.LastRoundStats(); r > 0 && (st.Full || st.Skipped) {
			t.Fatalf("round %d is not a steady partial round: %+v", r, st)
		}
		switch {
		case r == 0:
		case r == restoreAt:
			if policy.known != len(live)-1 || policy.same != 0 {
				t.Errorf("round %d, first after the restore: %d of %d kept rows are the ledger's slices, want none of %d", r, policy.same, policy.known, len(live)-1)
			}
		default:
			// Every job but the arrival was in the last round.
			if policy.known != len(live)-1 || policy.same != policy.known {
				t.Errorf("round %d: %d of %d kept rows are the ledger's slices, want all of %d", r, policy.same, policy.known, len(live)-1)
			}
		}
		journal.Check(t, fmt.Sprintf("round %d", r))
	}
	if journal.Len() < 2*rounds {
		t.Errorf("only %d rows journaled over %d rounds", journal.Len(), rounds)
	}
}
