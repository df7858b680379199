package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ga"
	rounds "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// rowSpy wraps a policy and journals every row it is shown in view.Current
// and every row it returns, re-checking all of them at each later round.
// swapped counts the rows that came back different from what the policy
// last returned for the job: nothing in the simulator may do that.
type rowSpy struct {
	sched.Policy
	t       *testing.T
	journal testutil.RowJournal
	rounds  int
	last    map[int][]int
	swapped int
}

func (s *rowSpy) Schedule(v *sched.ClusterView) ga.Matrix {
	s.journal.Check(s.t, fmt.Sprintf("round %d", s.rounds))
	s.journal.See(v.Current)
	for i, j := range v.Jobs {
		if row, ok := s.last[j.ID]; ok && !ga.SameRow(row, v.Current[i]) {
			s.swapped++
		}
	}
	m := s.Policy.Schedule(v)
	s.journal.See(m)
	s.last = make(map[int][]int, len(m))
	for i, j := range v.Jobs {
		s.last[j.ID] = m[i]
	}
	s.rounds++
	return m
}

// TestPublishedRowsAreNeverWritten: the simulator installs the policy's
// rows by reference and shows them again in the next view, so a row is
// written by nobody once it has crossed Round or Schedule — a finish and a
// pause each replace the job's slice. Whole runs of the three policies.
func TestPublishedRowsAreNeverWritten(t *testing.T) {
	small := smallOnly(smallTrace(1, 24))
	for _, c := range []struct {
		name   string
		policy sched.Policy
	}{
		{"pollux", fastPollux(1)},
		{"tiresias", sched.NewTiresias()},
		{"optimus", sched.NewOptimus(4)},
	} {
		t.Run(c.name, func(t *testing.T) {
			spy := &rowSpy{Policy: c.policy, t: t}
			res := NewCluster(small, spy, fastCfg(1)).Run()
			spy.journal.Check(t, "end of run")
			if res.Summary.Completed != len(small.Jobs) {
				t.Errorf("completed %d of %d jobs", res.Summary.Completed, len(small.Jobs))
			}
			if spy.journal.Len() < len(small.Jobs) {
				t.Errorf("journaled %d rows over %d rounds: the spy saw too little", spy.journal.Len(), spy.rounds)
			}
			if spy.swapped > 0 {
				t.Errorf("%d rows differ from what the policy last returned", spy.swapped)
			}
		})
	}
}

// coincident floors every submit time to a multiple of 45 s, which keeps
// the trace submit-sorted and makes arrivals tie with each other, with
// agent rounds (90 s), with scheduling rounds (180 s) and with neither.
// Some ties away from every round must have their IDs out of trace order:
// their arrival events pop by ID, so those jobs join the live list out of
// turn.
func coincident(t *testing.T, tr workload.Trace) workload.Trace {
	out := workload.Trace{Duration: tr.Duration}
	inverted := 0
	for i, j := range tr.Jobs {
		j.Submit = math.Floor(j.Submit/45) * 45
		//pollux:floateq-ok both sides are the same multiple of 45; equality is the tie this trace is built for
		if i > 0 && j.Submit == out.Jobs[i-1].Submit && j.ID < out.Jobs[i-1].ID && math.Mod(j.Submit, AgentInterval) != 0 {
			inverted++
		}
		out.Jobs = append(out.Jobs, j)
	}
	if inverted == 0 {
		t.Fatal("no coincident arrivals between rounds with IDs out of trace order: the trace does not cover the insertion")
	}
	return out
}

// TestLiveListMatchesScan: after every round of a run, the live list is
// what a scan of the whole trace finds — the submitted, unfinished jobs in
// trace order — and remaining is the count of jobs not done.
func TestLiveListMatchesScan(t *testing.T) {
	small := smallOnly(smallTrace(1, 24))
	for _, c := range []struct {
		name   string
		trace  workload.Trace
		policy sched.Policy
		mod    func(*Config)
	}{
		{"event", small, sched.NewTiresias(), nil},
		{"frontend", digestTenantTrace(11), sched.NewTiresias(), digestFrontEnd},
		{"coincident/event", coincident(t, smallOnly(smallTrace(2, 96))), sched.NewOptimus(4), nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := fastCfg(1)
			if c.mod != nil {
				c.mod(&cfg)
			}
			var cl *Cluster
			checked, rejected := 0, 0
			cfg.OnRound = func(now float64) {
				var scan []*jobState
				notDone := 0
				for _, j := range cl.jobs {
					if j.submitted && !j.done {
						scan = append(scan, j)
					}
					if !j.done {
						notDone++
					}
				}
				live := cl.active()
				if len(live) != len(scan) {
					t.Fatalf("t=%v: %d live jobs, the scan finds %d", now, len(live), len(scan))
				}
				for i := range scan {
					if live[i] != scan[i] {
						t.Fatalf("t=%v: live[%d] is job %d, the scan has job %d there", now, i, live[i].wj.ID, scan[i].wj.ID)
					}
				}
				if cl.remaining != notDone {
					t.Fatalf("t=%v: remaining = %d, %d jobs are not done", now, cl.remaining, notDone)
				}
				checked += len(scan)
			}
			cl = NewCluster(c.trace, c.policy, cfg)
			res := cl.Run()
			for _, r := range res.Records {
				if r.Rejected {
					rejected++
				}
			}
			if res.Summary.Completed+rejected != len(c.trace.Jobs) || cl.remaining != 0 {
				t.Errorf("completed %d and rejected %d of %d jobs, remaining = %d",
					res.Summary.Completed, rejected, len(c.trace.Jobs), cl.remaining)
			}
			if checked == 0 {
				t.Error("no round saw a live job")
			}
			if c.name == "frontend" && rejected == 0 {
				t.Error("the front end rejected nothing: the run does not cover a rejection")
			}
		})
	}
}

// modelSpy hands every view to check before the policy schedules it.
type modelSpy struct {
	sched.Policy
	check func(v *sched.ClusterView)
}

func (s modelSpy) Schedule(v *sched.ClusterView) ga.Matrix {
	s.check(v)
	return s.Policy.Schedule(v)
}

// TestAgentsFollowLiveJobs: a simulated job holds an agent exactly while it
// is live — admitted and unfinished — and the view carries a fitted model
// only to a policy that reads one. A quota front end rejects part of the
// trace, so rejected jobs are covered as well as unsubmitted and finished
// ones.
func TestAgentsFollowLiveJobs(t *testing.T) {
	for _, c := range []struct {
		policy     sched.Policy
		readsModel bool
	}{
		{sched.NewTiresias(), false},
		{sched.NewOptimus(4), true},
	} {
		t.Run(c.policy.Name(), func(t *testing.T) {
			if c.policy.ReadsModel() != c.readsModel {
				t.Fatalf("ReadsModel() = %v, want %v", c.policy.ReadsModel(), c.readsModel)
			}
			cfg := fastCfg(1)
			digestFrontEnd(&cfg)
			var cl *Cluster
			live, views := 0, 0
			holdsAgentIffLive := func(when string) {
				for _, j := range cl.jobs {
					isLive := j.submitted && !j.done
					if isLive != (j.Agent != nil) {
						t.Fatalf("%s: job %d (submitted %v, rejected %v, done %v) holds an agent: %v",
							when, j.wj.ID, j.submitted, j.rejected, j.done, j.Agent != nil)
					}
					if isLive {
						live++
					}
				}
			}
			cfg.OnRound = func(now float64) { holdsAgentIffLive(fmt.Sprintf("t=%v", now)) }
			spy := modelSpy{Policy: c.policy, check: func(v *sched.ClusterView) {
				for _, jv := range v.Jobs {
					zero := jv.Model == (core.Model{})
					fitted := jv.Model.M0 > 0 && jv.Model.Params != (core.Params{})
					if c.readsModel && !fitted || !c.readsModel && !zero {
						t.Fatalf("t=%v: job %d is shown model %+v", v.Now, jv.ID, jv.Model)
					}
				}
				views += len(v.Jobs)
			}}
			cl = NewCluster(digestTenantTrace(11), spy, cfg)
			cl.Run()
			holdsAgentIffLive("end of run")
			rejected := 0
			for _, j := range cl.jobs {
				if j.rejected {
					rejected++
				}
			}
			if rejected == 0 || live == 0 || views == 0 {
				t.Errorf("%d rejected jobs, %d live-job checks, %d jobs shown to the policy: the run covers too little",
					rejected, live, views)
			}
		})
	}
}

// steadyCluster is the frozen diurnal shape: a 64-node cluster under
// Tiresias at the instant every job of a trace has arrived, warmed by two
// rounds, so some forty jobs hold all 256 GPUs and about 150 queue. The
// clock stands still, so every further round finds nothing to change.
func steadyCluster(tb testing.TB) *Cluster {
	const jobs = 190
	tr := smallTrace(7, jobs)
	c := NewCluster(tr, sched.NewTiresias(), Config{Nodes: 64, GPUsPerNode: 4, UseTunedConfig: true, Seed: 7})
	c.now = tr.Duration
	c.submitArrivals()
	c.agentTick()
	for i := 0; i < 2; i++ {
		c.scheduleTick()
	}
	queued := 0
	for _, j := range c.active() {
		if j.Placement.GPUs == 0 {
			queued++
		}
	}
	if len(c.active()) != jobs || queued < jobs/2 || queued == jobs {
		tb.Fatalf("%d of %d jobs live, %d queued: not the steady shape", len(c.active()), jobs, queued)
	}
	return c
}

// TestSimRoundAllocatesNothing: a steady round's two backend ends, the
// snapshot and the commit of an unchanged matrix, allocate nothing.
func TestSimRoundAllocatesNothing(t *testing.T) {
	c := steadyCluster(t)
	changed := make([]bool, len(c.active()))
	if n := testing.AllocsPerRun(50, func() {
		v := c.Round(c.now)
		if err := c.Commit(v.Current, changed); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Round + Commit allocate %v times on a steady cluster, want 0", n)
	}
}

// BenchmarkSimRoundSteady times one scheduling round of the simulator
// (runtime.Step: snapshot, Tiresias, diff, validation, commit) on the
// steady shape. Nothing changes, so what it allocates is Step's two
// scratch slices and the policy's matrix of row headers; CI gates
// allocs/op exactly (bench/baselines/gobench.json, at -benchtime 20x), so
// a matrix of rows, or an allocation per job, coming back moves it.
func BenchmarkSimRoundSteady(b *testing.B) {
	c := steadyCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rounds.Step(c, nil, c.policy, c.now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimAgentTick times one agent round of the simulator on the
// steady shape: a noise-scale draw for each of the some forty running
// jobs. Tiresias reads no fitted model, so the round fits none and
// allocates nothing; CI gates allocs/op at 0 (bench/baselines/gobench.json,
// at -benchtime 20x), so a refit pass, or its per-round scratch, coming
// back under a policy that does not read the model moves it.
func BenchmarkSimAgentTick(b *testing.B) {
	c := steadyCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.agentTick()
	}
}
