package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ga"
	rounds "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// rowSpy wraps a policy and journals every row it is shown in view.Current
// and every row it returns, re-checking all of them at each later round.
// evicted counts the rows that came back different from what the policy
// last returned for the job: only a scale-down eviction does that.
type rowSpy struct {
	sched.Policy
	t       *testing.T
	journal testutil.RowJournal
	rounds  int
	last    map[int][]int
	evicted int
}

func (s *rowSpy) Schedule(v *sched.ClusterView) ga.Matrix {
	s.journal.Check(s.t, fmt.Sprintf("round %d", s.rounds))
	s.journal.See(v.Current)
	for i, j := range v.Jobs {
		if row, ok := s.last[j.ID]; ok && !ga.SameRow(row, v.Current[i]) {
			s.evicted++
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

// sizingSpy is a rowSpy around Pollux that still drives cluster autoscaling.
type sizingSpy struct {
	*rowSpy
	pollux *sched.Pollux
}

func (s sizingSpy) DesiredClusterNodes(v *sched.ClusterView, minNodes, maxNodes int) int {
	return s.pollux.DesiredClusterNodes(v, minNodes, maxNodes)
}

// TestPublishedRowsAreNeverWritten: the simulator installs the policy's
// rows by reference and shows them again in the next view, so a row is
// written by nobody once it has crossed Round or Schedule — a finish, a
// pause and a scale-down eviction each replace the job's slice. Whole runs
// of the three policies, and one whose autoscaler releases nodes that jobs
// still hold GPUs on.
func TestPublishedRowsAreNeverWritten(t *testing.T) {
	small := smallOnly(smallTrace(1, 24))
	for _, c := range []struct {
		name     string
		policy   func() sched.Policy
		mod      func(*Config)
		eviction bool
	}{
		{name: "pollux", policy: func() sched.Policy { return fastPollux(1) }},
		{name: "tiresias", policy: func() sched.Policy { return sched.NewTiresias() }},
		{name: "optimus", policy: func() sched.Policy { return sched.NewOptimus(4) }},
		{name: "tick/tiresias", policy: func() sched.Policy { return sched.NewTiresias() }, mod: func(c *Config) {
			c.Engine = EngineTick
		}},
		{name: "autoscale", policy: func() sched.Policy { return fastPollux(1) }, mod: func(c *Config) {
			c.Nodes = 8
			c.Autoscale = &ClusterAutoscaleConfig{MinNodes: 1, MaxNodes: 8}
		}, eviction: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := fastCfg(1)
			if c.mod != nil {
				c.mod(&cfg)
			}
			spy := &rowSpy{Policy: c.policy(), t: t}
			policy := sched.Policy(spy)
			if pollux, ok := spy.Policy.(*sched.Pollux); ok && cfg.Autoscale != nil {
				policy = sizingSpy{spy, pollux}
			}
			res := NewCluster(small, policy, cfg).Run()
			spy.journal.Check(t, "end of run")
			if res.Summary.Completed != len(small.Jobs) {
				t.Errorf("completed %d of %d jobs", res.Summary.Completed, len(small.Jobs))
			}
			if spy.journal.Len() < len(small.Jobs) {
				t.Errorf("journaled %d rows over %d rounds: the spy saw too little", spy.journal.Len(), spy.rounds)
			}
			if c.eviction && spy.evicted == 0 {
				t.Error("no scale-down evicted a placed job: the run does not cover the eviction")
			}
			if !c.eviction && spy.evicted > 0 {
				t.Errorf("%d rows differ from what the policy last returned, with no autoscaler to evict them", spy.evicted)
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
		{"tick", small, sched.NewTiresias(), func(c *Config) { c.Engine = EngineTick }},
		{"frontend", digestTenantTrace(11), sched.NewTiresias(), digestFrontEnd},
		{"coincident/event", coincident(t, smallOnly(smallTrace(2, 96))), sched.NewOptimus(4), nil},
		{"coincident/tick", coincident(t, smallOnly(smallTrace(2, 96))), sched.NewOptimus(4), func(c *Config) { c.Engine = EngineTick }},
		{"autoscale", small, fastPollux(1), func(c *Config) {
			c.Nodes = 8
			c.Autoscale = &ClusterAutoscaleConfig{MinNodes: 1, MaxNodes: 8}
		}},
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
