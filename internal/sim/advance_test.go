package sim

import (
	"math"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/ga"
	"repro/internal/sched"
	"repro/internal/workload"
)

// singleJobCluster builds a cluster holding one running resnet18 job on 4
// co-located GPUs, for exercising the progress-advance primitives
// directly.
func singleJobCluster() (*Cluster, *jobState) {
	tr := workload.Trace{Jobs: []workload.Job{{
		ID: 1, Model: "resnet18", Submit: 0,
		TunedGPUs: 4, TunedBatch: 512, UserGPUs: 4, UserBatch: 512,
	}}}
	cfg := Config{Nodes: 4, GPUsPerNode: 4, Tick: 1, UseTunedConfig: true, Seed: 42}
	c := NewCluster(tr, sched.NewTiresias(), cfg)
	c.submitArrivals()
	j := c.jobs[0]
	if err := c.ledger.Install([]int{j.idx}, ga.Matrix{{4, 0, 0, 0}}); err != nil {
		panic(err)
	}
	j.Placement = sched.PlacementOf(c.ledger.Row(j.idx))
	return c, j
}

// TestClosedFormAdvanceIsAdditive: advancing a job in one closed-form
// jump must equal advancing it through many sub-segments at the same
// frozen rate — the defining property that lets the event engine skip
// the time between events.
func TestClosedFormAdvanceIsAdditive(t *testing.T) {
	one, jOne := singleJobCluster()
	many, jMany := singleJobCluster()
	jOne.freeze(jOne.ClusterBatch(), 0, AgentInterval)
	jMany.freeze(jMany.ClusterBatch(), 0, AgentInterval)
	if jOne.rate.good <= 0 {
		t.Fatal("job has no training rate")
	}

	jOne.advanceTo(300, one.cfg.Tick)
	for step := 1; step <= 100; step++ {
		jMany.advanceTo(float64(step)*3, many.cfg.Tick)
	}

	if d := math.Abs(jOne.Progress/jMany.Progress - 1); d > 1e-9 {
		t.Errorf("single jump progress %v vs subdivided %v (rel diff %v)",
			jOne.Progress, jMany.Progress, d)
	}
	//pollux:floateq-ok run time accumulates the same exact tick deltas either way; equality is exact by construction
	if jOne.RunTime != jMany.RunTime {
		t.Errorf("runTime: single %v vs subdivided %v", jOne.RunTime, jMany.RunTime)
	}
	if d := math.Abs(jOne.GPUTime/jMany.GPUTime - 1); d > 1e-9 {
		t.Errorf("gpuTime: single %v vs subdivided %v", jOne.GPUTime, jMany.GPUTime)
	}
}

// TestClosedFormAdvanceMatchesTickAccumulation: over one agent interval
// the closed-form jump must agree with a fixed-step accumulation of
// Job.Step — one second at a time, re-reading the slowly drifting
// efficiency at every step — to well under the 5% parity band the replay
// is held to.
func TestClosedFormAdvanceMatchesTickAccumulation(t *testing.T) {
	ev, jEv := singleJobCluster()
	tk, jTk := singleJobCluster()

	jEv.freeze(jEv.ClusterBatch(), 0, AgentInterval)
	jEv.advanceTo(30, ev.cfg.Tick)

	for now := 0.0; now < 30; now += tk.cfg.Tick {
		jTk.Step(jTk.ClusterBatch(), 0, tk.cfg.Tick)
	}

	if jEv.Progress <= 0 || jTk.Progress <= 0 {
		t.Fatalf("no progress: event %v tick %v", jEv.Progress, jTk.Progress)
	}
	if d := math.Abs(jEv.Progress/jTk.Progress - 1); d > 0.005 {
		t.Errorf("closed-form progress %v vs tick accumulation %v (rel diff %v)",
			jEv.Progress, jTk.Progress, d)
	}
	if d := math.Abs(jEv.RunTime - jTk.RunTime); d > 1e-9 {
		t.Errorf("runTime: event %v vs tick %v", jEv.RunTime, jTk.RunTime)
	}
}

// TestClosedFormAdvanceExcludesRestartPause: a checkpoint-restart pause
// inside the advanced interval contributes no progress, run time, or GPU
// time.
func TestClosedFormAdvanceExcludesRestartPause(t *testing.T) {
	c, j := singleJobCluster()
	j.freeze(j.ClusterBatch(), 0, AgentInterval)
	good := j.rate.good

	j.RestartUntil = 100
	j.advanceTo(300, c.cfg.Tick)

	if j.RunTime != 200 {
		t.Errorf("runTime = %v, want 200 (300s minus 100s pause)", j.RunTime)
	}
	if d := math.Abs(j.Progress - good*200); d > 1e-6 {
		t.Errorf("progress = %v, want rate*200 = %v", j.Progress, good*200)
	}

	// A pause covering the whole interval freezes the job entirely.
	c2, j2 := singleJobCluster()
	j2.freeze(j2.ClusterBatch(), 0, AgentInterval)
	j2.RestartUntil = 1000
	j2.advanceTo(300, c2.cfg.Tick)
	if j2.Progress != 0 || j2.RunTime != 0 {
		t.Errorf("paused job advanced: progress=%v runTime=%v", j2.Progress, j2.RunTime)
	}
	if j2.lastT != 300 {
		t.Errorf("paused job lastT = %v, want re-anchored to 300", j2.lastT)
	}
}

// TestEventEngineSnapsDecayBoundaries: a milestone prediction lands
// exactly on the learning-rate decay boundary, so the post-decay rate is
// computed from the jumped noise scale with no boundary-straddling error.
func TestEventEngineSnapsDecayBoundaries(t *testing.T) {
	c, j := singleJobCluster()
	j.freeze(j.ClusterBatch(), 0, AgentInterval)
	if j.rate.good <= 0 {
		t.Fatal("no rate")
	}
	total := j.Spec.TotalWork()
	if len(j.Spec.Decays) == 0 {
		t.Fatal("spec has no decay milestones")
	}
	first := j.Spec.Decays[0].Progress * total

	// The milestone target is the first decay boundary, not completion.
	//pollux:floateq-ok the target is computed from the same decay-boundary product; any difference is a real bug
	if got := j.nextMilestone(); got != first {
		t.Errorf("nextMilestone = %v, want first decay boundary %v", got, first)
	}

	// Far-future milestones are not pushed: they are guaranteed to be
	// superseded at the next rate refresh, so pushing them would only
	// accumulate dead events on long traces.
	var q eventsim.Queue
	j.predict(&q, c.now, AgentInterval, j.wj.ID, evMilestone)
	if wantT := (first - j.Progress) / j.rate.good; wantT > AgentInterval {
		if _, ok := q.Pop(); ok {
			t.Errorf("milestone %vs away pushed despite refresh horizon %vs", wantT, AgentInterval)
		}
	}

	// Start the job just below the boundary: the milestone is now within
	// the refresh horizon and must land exactly on it.
	j.Progress = first - j.rate.good*AgentInterval/2
	j.predict(&q, c.now, AgentInterval, j.wj.ID, evMilestone)
	e, ok := q.Pop()
	if !ok {
		t.Fatal("no milestone scheduled for near boundary")
	}
	//pollux:floateq-ok predTarget is a stored copy of the same decay-boundary product; any difference is a real bug
	if j.predTarget != first {
		t.Errorf("predTarget = %v, want first decay boundary %v", j.predTarget, first)
	}
	wantT := c.now + (first-j.Progress)/j.rate.good
	if math.Abs(e.Time-wantT) > 1e-9*math.Max(wantT, 1) {
		t.Errorf("milestone time %v, want %v", e.Time, wantT)
	}
}

// TestEventEngineAdmitsBoundaryAlignedArrival: a job whose submit time
// coincides exactly with a scheduling instant must be admitted to that
// round, not deferred a full SchedInterval by the cluster-before-job event
// ordering.
func TestEventEngineAdmitsBoundaryAlignedArrival(t *testing.T) {
	tr := workload.Trace{Jobs: []workload.Job{{
		ID: 1, Model: "resnet18", Submit: 60, // exactly the 2nd sched round
		TunedGPUs: 4, TunedBatch: 512, UserGPUs: 4, UserBatch: 512,
	}}}
	cfg := Config{
		Nodes: 4, GPUsPerNode: 4, UseTunedConfig: true,
		Seed: 1, LogEvents: true,
	}
	res := NewCluster(tr, sched.NewTiresias(), cfg).Run()
	var submitAt, allocAt float64
	allocAt = -1
	for _, e := range res.Events {
		switch e.Kind {
		case EventSubmit:
			submitAt = e.Time
		case EventAllocate:
			if allocAt < 0 {
				allocAt = e.Time
			}
		}
	}
	if submitAt != 60 {
		t.Fatalf("submit recorded at %v, want 60", submitAt)
	}
	if allocAt != 60 {
		t.Errorf("first allocation at %v, want 60 (same round as the boundary-aligned arrival)", allocAt)
	}
}
