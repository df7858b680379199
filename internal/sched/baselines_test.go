package sched

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/models"
	"repro/internal/testutil"
)

func TestTiresiasQueueOf(t *testing.T) {
	tr := NewTiresias()
	if q := tr.queueOf(0); q != 0 {
		t.Errorf("queue of new job = %d, want 0", q)
	}
	if q := tr.queueOf(2 * 3600); q != 1 {
		t.Errorf("queue of 2 GPU-h job = %d, want 1", q)
	}
	if q := tr.queueOf(100 * 3600); q != 2 {
		t.Errorf("queue of 100 GPU-h job = %d, want 2", q)
	}
}

func TestTiresiasAllocatesRequestedGPUs(t *testing.T) {
	v := viewWith(3, 4, 4)
	v.Jobs[0].UserGPUs = 4
	v.Jobs[1].UserGPUs = 8
	v.Jobs[2].UserGPUs = 2
	tr := NewTiresias()
	m := tr.Schedule(v)
	for j, want := range []int{4, 8, 2} {
		if got := m.JobGPUs(j); got != want {
			t.Errorf("job %d got %d GPUs, want exactly %d", j, got, want)
		}
	}
	if !ga.Feasible(m, v.Capacity, false) {
		t.Error("infeasible")
	}
}

func TestTiresiasPrioritizesLowAttainedService(t *testing.T) {
	// 5 jobs each wanting 4 GPUs; only 16 GPUs. Jobs with less attained
	// service must win.
	v := viewWith(5, 4, 4)
	for i := range v.Jobs {
		v.Jobs[i].UserGPUs = 4
	}
	v.Jobs[0].GPUTime = 20 * 3600 // bottom queue
	v.Jobs[1].GPUTime = 5 * 3600  // middle queue
	// Jobs 2..4 are fresh (top queue).
	tr := NewTiresias()
	m := tr.Schedule(v)
	for _, j := range []int{2, 3, 4} {
		if m.JobGPUs(j) != 4 {
			t.Errorf("fresh job %d not scheduled", j)
		}
	}
	if m.JobGPUs(1) != 4 {
		t.Error("middle-queue job should take the last slot")
	}
	if m.JobGPUs(0) != 0 {
		t.Error("bottom-queue job should be preempted")
	}
}

func TestTiresiasSnapshotOrderWithinQueue(t *testing.T) {
	// Within a queue the snapshot order decides. Deployments present
	// snapshots in submission order (so this is FIFO by default), and an
	// admit front end can reorder the snapshot to impose its own priority.
	v := viewWith(2, 1, 4) // only 4 GPUs
	v.Jobs[0].UserGPUs = 4
	v.Jobs[0].Submit = 50
	v.Jobs[1].UserGPUs = 4
	v.Jobs[1].Submit = 100
	tr := NewTiresias()
	m := tr.Schedule(v)
	if m.JobGPUs(0) != 4 || m.JobGPUs(1) != 0 {
		t.Errorf("first snapshot row should win: %v", m)
	}

	// Reorder the snapshot (as the SLO priority stage would): the new
	// first row wins even though it submitted later.
	v.Jobs[0], v.Jobs[1] = v.Jobs[1], v.Jobs[0]
	m = tr.Schedule(v)
	if m.JobGPUs(0) != 4 || m.JobGPUs(1) != 0 {
		t.Errorf("reordered snapshot should put the new first row ahead: %v", m)
	}
}

func TestTiresiasBackfills(t *testing.T) {
	v := viewWith(2, 1, 4)
	v.Jobs[0].UserGPUs = 8 // can never fit on 4 GPUs
	v.Jobs[1].UserGPUs = 2
	tr := NewTiresias()
	m := tr.Schedule(v)
	if m.JobGPUs(0) != 0 {
		t.Error("oversized job should be skipped")
	}
	if m.JobGPUs(1) != 2 {
		t.Error("small job should backfill")
	}
}

// TestBaselinesPublishRowsByTheRowRule: a baseline hands back the view's
// current row for a job its packing leaves where it is, one fresh slice for
// a job it moves, and one shared zero row for every job it leaves without
// GPUs — and writes none of them afterwards.
func TestBaselinesPublishRowsByTheRowRule(t *testing.T) {
	for _, p := range []Policy{NewTiresias(), NewOptimus(4)} {
		t.Run(p.Name(), func(t *testing.T) {
			v := viewWith(6, 2, 4) // 8 GPUs: two jobs run, four queue
			for i := range v.Jobs {
				v.Jobs[i].UserGPUs, v.Jobs[i].MinGPUs, v.Jobs[i].Submit = 4, 4, float64(i)
			}
			v.Current = nil
			var journal testutil.RowJournal
			first := p.Schedule(v)
			journal.See(first)
			for i := range first {
				if got := first.JobGPUs(i); (i < 2) != (got == 4) || (i >= 2) != (got == 0) {
					t.Fatalf("job %d holds %d GPUs, want 4 for jobs 0 and 1 and none for the rest", i, got)
				}
				if i > 2 && !ga.SameRow(first[i], first[2]) {
					t.Errorf("queued jobs 2 and %d hold two zero rows, want one shared", i)
				}
			}

			v.Current = first
			again := p.Schedule(v)
			for i := range again {
				if !ga.SameRow(again[i], first[i]) {
					t.Errorf("job %d did not move and got another slice than the view's", i)
				}
			}

			// Job 1 drops out (the bottom queue, or a batch that needs more
			// GPUs than exist) and job 2 takes its node.
			v.Jobs[1].GPUTime, v.Jobs[1].MinGPUs = 20*3600, 16
			moved := p.Schedule(v)
			if !ga.SameRow(moved[0], first[0]) {
				t.Error("the job that stayed got another slice than the view's")
			}
			if !ga.SameRow(moved[1], first[2]) {
				t.Errorf("the job that lost its GPUs got %v, want the shared zero row", moved[1])
			}
			if moved.JobGPUs(2) != 4 || ga.SameRow(moved[2], first[1]) {
				t.Errorf("the job that started got %v, want a slice of its own with 4 GPUs", moved[2])
			}
			journal.See(moved)
			v.Current = moved
			p.Schedule(v)
			journal.Check(t, "after three more rounds")
		})
	}
}

func TestOptimusGivesEveryoneMinimumFirst(t *testing.T) {
	v := viewWith(4, 4, 4)
	for i := range v.Jobs {
		v.Jobs[i].MinGPUs = 2
	}
	o := NewOptimus(4)
	m := o.Schedule(v)
	for j := range m {
		if m.JobGPUs(j) < 2 {
			t.Errorf("job %d got %d GPUs, want >= its minimum 2", j, m.JobGPUs(j))
		}
	}
	if !ga.Feasible(m, v.Capacity, false) {
		t.Error("infeasible")
	}
}

func TestOptimusUsesWholeClusterWhenBeneficial(t *testing.T) {
	// At a large fixed batch, resnet18 keeps gaining throughput from
	// more GPUs, so the greedy loop hands out the whole cluster.
	v := viewWith(2, 4, 4)
	for i := range v.Jobs {
		v.Jobs[i].UserBatch = 4096
	}
	o := NewOptimus(4)
	m := o.Schedule(v)
	total := 0
	for j := range m {
		total += m.JobGPUs(j)
	}
	if total < 14 {
		t.Errorf("allocated %d of 16 GPUs", total)
	}
}

func TestOptimusStopsWhenMoreGPUsHurt(t *testing.T) {
	// At a small fixed batch, cross-node sync makes extra GPUs a net
	// loss — the paper's motivating observation about non-batch-adaptive
	// schedulers. Optimus must leave GPUs idle rather than slow jobs.
	v := viewWith(2, 4, 4)
	for i := range v.Jobs {
		v.Jobs[i].UserBatch = 512
	}
	o := NewOptimus(4)
	m := o.Schedule(v)
	for j := range m {
		k := m.JobGPUs(j)
		if k == 0 || k > 8 {
			t.Errorf("job %d allocated %d GPUs; expected a moderate positive count", j, k)
		}
	}
}

func TestOptimusFavorsScalableJob(t *testing.T) {
	// Job 0 scales well (large batch); job 1 is sync-bound (tiny batch).
	v := viewWith(2, 4, 4)
	v.Jobs[0].UserBatch = 2048
	v.Jobs[1].UserBatch = 128
	o := NewOptimus(4)
	m := o.Schedule(v)
	if m.JobGPUs(0) <= m.JobGPUs(1) {
		t.Errorf("scalable job got %d GPUs, sync-bound job got %d",
			m.JobGPUs(0), m.JobGPUs(1))
	}
}

func TestOptimusRemainingDecreasesWithGPUs(t *testing.T) {
	spec := models.ByName("resnet18")
	j := JobView{
		Model:          spec.GoodputModel(0.5),
		UserBatch:      1024,
		RemainingIters: 1e4,
	}
	o := NewOptimus(4)
	// Within a single node, adding GPUs always reduces remaining time.
	prev := o.remaining(j, 1)
	for g := 2; g <= 4; g++ {
		cur := o.remaining(j, g)
		if cur > prev {
			t.Errorf("remaining time increased at %d GPUs: %v > %v", g, cur, prev)
		}
		prev = cur
	}
	if o.remaining(j, 0) != inf {
		t.Error("zero GPUs should have infinite remaining time")
	}
}

func TestGoodputAutoscalerGrowsWithPhi(t *testing.T) {
	spec := models.ByName("resnet50")
	a := NewGoodputAutoscaler(1, 16)
	early := a.DesiredNodes(spec.GoodputModel(0.05), 4)
	late := a.DesiredNodes(spec.GoodputModel(0.95), 4)
	if late <= early {
		t.Errorf("desired nodes did not grow with phi: early=%d late=%d", early, late)
	}
	if early < 1 || late > 16 {
		t.Errorf("bounds violated: early=%d late=%d", early, late)
	}
}

func TestGoodputAutoscalerRespectsBounds(t *testing.T) {
	spec := models.ByName("resnet50")
	a := NewGoodputAutoscaler(3, 5)
	for _, p := range []float64{0, 0.5, 1} {
		n := a.DesiredNodes(spec.GoodputModel(p), 4)
		if n < 3 || n > 5 {
			t.Errorf("nodes = %d at p=%v, want within [3, 5]", n, p)
		}
	}
}

func TestThroughputAutoscalerConstantOverTraining(t *testing.T) {
	spec := models.ByName("resnet50")
	a := NewThroughputAutoscaler(1, 16, 0.9)
	early := a.DesiredNodes(spec.GoodputModel(0.05), 4)
	late := a.DesiredNodes(spec.GoodputModel(0.95), 4)
	if early != late {
		t.Errorf("throughput-based scaler changed size: %d -> %d", early, late)
	}
	// And it scales out aggressively from the start (Fig. 10a).
	goodput := NewGoodputAutoscaler(1, 16)
	if early <= goodput.DesiredNodes(spec.GoodputModel(0.05), 4) {
		t.Errorf("throughput scaler (%d nodes) should exceed goodput scaler early", early)
	}
}

func TestThroughputOptimalBatch(t *testing.T) {
	spec := models.ByName("resnet50")
	model := spec.GoodputModel(0.5)
	pl := core.Placement{GPUs: 8, Nodes: 2}
	m := ThroughputOptimalBatch(model, pl)
	want := 8 * spec.MaxBatchPerGPU
	if want > spec.MaxBatchGlobal {
		want = spec.MaxBatchGlobal
	}
	if m != want {
		t.Errorf("throughput-optimal batch = %d, want %d (memory-max)", m, want)
	}
}
