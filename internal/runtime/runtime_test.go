package runtime

import (
	"strings"
	"testing"

	"repro/internal/admit"

	"repro/internal/ga"
	"repro/internal/sched"
)

// fakeBackend is a minimal two-node deployment for exercising Step.
type fakeBackend struct {
	view      *sched.ClusterView
	committed ga.Matrix
	changed   []bool
}

func (f *fakeBackend) Round(now float64) *sched.ClusterView { return f.view }

func (f *fakeBackend) Commit(m ga.Matrix, changed []bool) error {
	f.committed = m
	f.changed = changed
	return nil
}

// fixedPolicy returns a canned matrix regardless of the view.
type fixedPolicy struct{ m ga.Matrix }

func (p fixedPolicy) Name() string                          { return "fixed" }
func (p fixedPolicy) AdaptsBatchSize() bool                 { return false }
func (p fixedPolicy) Schedule(*sched.ClusterView) ga.Matrix { return p.m }

func view(jobs int, current ga.Matrix) *sched.ClusterView {
	v := &sched.ClusterView{Capacity: []int{4, 4}, Current: current}
	for i := 0; i < jobs; i++ {
		v.Jobs = append(v.Jobs, sched.JobView{ID: i})
	}
	return v
}

func TestStepCommitsDiffedRows(t *testing.T) {
	b := &fakeBackend{view: view(2, ga.Matrix{{2, 0}, {0, 2}})}
	n, err := Step(b, nil, fixedPolicy{ga.Matrix{{2, 0}, {2, 0}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("scheduled %d, want 2", n)
	}
	if b.committed == nil {
		t.Fatal("Commit not called")
	}
	if b.changed[0] || !b.changed[1] {
		t.Errorf("changed = %v, want [false true]", b.changed)
	}
}

func TestStepEmptyRoundSkipsPolicy(t *testing.T) {
	b := &fakeBackend{view: view(0, nil)}
	n, err := Step(b, nil, fixedPolicy{nil}, 0)
	if err != nil || n != 0 {
		t.Errorf("Step = (%d, %v), want (0, nil)", n, err)
	}
	if b.committed != nil {
		t.Error("Commit called on an empty round")
	}
}

func TestStepRejectsWrongRowCount(t *testing.T) {
	b := &fakeBackend{view: view(2, ga.Matrix{{0, 0}, {0, 0}})}
	_, err := Step(b, nil, fixedPolicy{ga.Matrix{{1, 0}}}, 0)
	if err == nil {
		t.Fatal("short matrix accepted")
	}
	if b.committed != nil {
		t.Error("Commit called despite malformed matrix")
	}
}

func TestStepRejectsOversubscription(t *testing.T) {
	b := &fakeBackend{view: view(2, ga.Matrix{{0, 0}, {0, 0}})}
	_, err := Step(b, nil, fixedPolicy{ga.Matrix{{3, 0}, {3, 0}}}, 0)
	if err == nil || !strings.Contains(err.Error(), "oversubscribed") {
		t.Fatalf("err = %v, want oversubscription error", err)
	}
	if b.committed != nil {
		t.Error("Commit called despite oversubscription")
	}
}

func TestCheckCapacityShape(t *testing.T) {
	if err := CheckCapacity([]int{4, 4}, ga.Matrix{{1, 1, 1}}); err == nil {
		t.Error("wrong-shaped row accepted")
	}
	if err := CheckCapacity([]int{4, 4}, ga.Matrix{{4, 0}, {0, 4}}); err != nil {
		t.Errorf("exact-fit matrix rejected: %v", err)
	}
}

// firstWins allocates every GPU of node 0 to the first snapshot row —
// order-sensitive on purpose, to observe the front end's permutation.
type firstWins struct{}

func (firstWins) Name() string          { return "first-wins" }
func (firstWins) AdaptsBatchSize() bool { return false }
func (firstWins) Schedule(v *sched.ClusterView) ga.Matrix {
	m := ga.NewMatrix(len(v.Jobs), len(v.Capacity))
	if len(m) > 0 {
		m[0][0] = v.Capacity[0]
	}
	return m
}

// TestStepFrontEndPermutation pins the permutation round trip: the SLO
// priority stage reorders the snapshot the policy sees, but the matrix
// and changed flags committed to the backend are back in Round order.
func TestStepFrontEndPermutation(t *testing.T) {
	fe, err := admit.New(&admit.Options{Priority: admit.PrioritySLO})
	if err != nil {
		t.Fatal(err)
	}
	v := view(3, ga.Matrix{{4, 0}, {0, 0}, {0, 0}})
	v.Jobs[0].Deadline = 900 // currently running, latest deadline
	v.Jobs[1].Deadline = 600
	v.Jobs[2].Deadline = 100 // earliest deadline, snapshot row 2
	b := &fakeBackend{view: v}
	n, err := Step(b, fe, firstWins{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("scheduled %d, want 3", n)
	}
	// The policy gave node 0 to its first row = job 2 after the SLO sort;
	// the commit must land on backend row 2, with rows 0 and 2 changed.
	want := ga.Matrix{{0, 0}, {0, 0}, {4, 0}}
	if !b.committed.Equal(want) {
		t.Fatalf("committed = %v, want %v", b.committed, want)
	}
	wantChanged := []bool{true, false, true}
	for i := range wantChanged {
		if b.changed[i] != wantChanged[i] {
			t.Fatalf("changed = %v, want %v", b.changed, wantChanged)
		}
	}
	// The round was observed: job 1 (tenant "") had no allocation.
	if fe.Rounds() != 1 {
		t.Errorf("front end observed %d rounds, want 1", fe.Rounds())
	}
	if got := fe.Stats()[""].QueueDepthSum; got != 2 {
		t.Errorf("queue depth sum = %v, want 2 (jobs 0 and 1 unallocated)", got)
	}
}
