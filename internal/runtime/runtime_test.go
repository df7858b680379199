package runtime

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/admit"
	"repro/internal/ga"
	"repro/internal/sched"
	"repro/internal/testutil"
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
func (p fixedPolicy) ReadsModel() bool                      { return false }
func (p fixedPolicy) Schedule(*sched.ClusterView) ga.Matrix { return p.m }

// view is a two-node round of the given jobs on the current rows, with
// their usage totals, as a backend's ledger keeps them.
func view(jobs int, current ga.Matrix) *sched.ClusterView {
	v := &sched.ClusterView{Capacity: []int{4, 4}, Current: current, Usage: make([]int, 2)}
	for _, row := range current {
		for n, g := range row {
			v.Usage[n] += g
		}
	}
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

// TestStepRequiresUsage: a view without a usage total per node is refused
// before the policy runs.
func TestStepRequiresUsage(t *testing.T) {
	v := view(1, ga.Matrix{{0, 0}})
	v.Usage = nil
	b := &fakeBackend{view: v}
	if _, err := Step(b, nil, fixedPolicy{nil}, 0); err == nil || !strings.Contains(err.Error(), "usage totals") {
		t.Fatalf("err = %v, want a missing-usage error", err)
	}
	if b.committed != nil {
		t.Error("Commit called for a view without usage totals")
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

// firstWins allocates every GPU of node 0 to the first snapshot row —
// order-sensitive on purpose, to observe the front end's permutation.
type firstWins struct{}

func (firstWins) Name() string          { return "first-wins" }
func (firstWins) AdaptsBatchSize() bool { return false }
func (firstWins) ReadsModel() bool      { return false }
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

// checkOracle is the independent statement of what CheckCapacity accepts:
// every row one entry per node, no negative entry, and no column summing
// past its node's capacity. It walks column by column on purpose.
func checkOracle(capacity []int, m ga.Matrix) bool {
	for _, row := range m {
		if len(row) != len(capacity) {
			return false
		}
		for _, g := range row {
			if g < 0 {
				return false
			}
		}
	}
	for n, c := range capacity {
		total := 0
		for _, row := range m {
			total += row[n]
		}
		if total > c {
			return false
		}
	}
	return true
}

func TestCheckCapacityTable(t *testing.T) {
	capacity := []int{4, 4}
	for _, c := range []struct {
		name string
		m    ga.Matrix
		want string // substring of the error; "" accepts
	}{
		{"empty", ga.Matrix{}, ""},
		{"exact fit", ga.Matrix{{4, 0}, {0, 4}}, ""},
		{"exact fit shared", ga.Matrix{{1, 2}, {3, 2}}, ""},
		{"long row", ga.Matrix{{1, 1, 1}}, "row 0 has 3 nodes"},
		{"short row", ga.Matrix{{1, 1}, {1}}, "row 1 has 1 nodes"},
		{"nil row", ga.Matrix{{1, 1}, nil}, "row 1 has 0 nodes"},
		{"over by one", ga.Matrix{{2, 0}, {3, 0}}, "node 0 oversubscribed: 5 > 4"},
		{"over on last node", ga.Matrix{{0, 4}, {0, 1}}, "node 1 oversubscribed: 5 > 4"},
		// The negative entry makes the column sum fit; the rows without it
		// hold 6 GPUs on a 4-GPU node.
		{"negative hides oversubscription", ga.Matrix{{-2, 0}, {3, 0}, {3, 0}}, "row 0 node 0 negative"},
		{"negative alone", ga.Matrix{{0, 0}, {0, -1}}, "row 1 node 1 negative"},
	} {
		err := CheckCapacity(capacity, c.m)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
		if (err == nil) != checkOracle(capacity, c.m) {
			t.Errorf("%s: CheckCapacity and the column-sum oracle disagree (err = %v)", c.name, err)
		}
	}
}

func TestStepRejectsNegativeCell(t *testing.T) {
	b := &fakeBackend{view: view(3, ga.NewMatrix(3, 2))}
	_, err := Step(b, nil, fixedPolicy{ga.Matrix{{-2, 0}, {3, 0}, {3, 0}}}, 0)
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("err = %v, want a negative-cell error", err)
	}
	if b.committed != nil {
		t.Error("Commit called despite a negative cell")
	}
}

// TestCheckCapacityMatchesOracle compares the one-pass check with the
// column-sum oracle on random matrices of every shape the round can see:
// empty, a single row, filled exactly to capacity, one GPU over, and
// unconstrained ones with the occasional negative or ragged row.
func TestCheckCapacityMatchesOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := make([]int, 1+rng.Intn(6))
		for n := range capacity {
			capacity[n] = rng.Intn(9)
		}
		var m ga.Matrix
		switch kind := rng.Intn(5); kind {
		case 0: // empty
			m = ga.Matrix{}
		case 1: // single row
			m = ga.NewMatrix(1, len(capacity))
			for n, c := range capacity {
				m[0][n] = rng.Intn(c + 2)
			}
		case 2, 3: // exact fit, then one over
			m = ga.NewMatrix(1+rng.Intn(5), len(capacity))
			for n, c := range capacity {
				for ; c > 0; c-- {
					m[rng.Intn(len(m))][n]++
				}
			}
			if kind == 3 {
				m[rng.Intn(len(m))][rng.Intn(len(capacity))]++
			}
		default:
			m = ga.NewMatrix(rng.Intn(6), len(capacity))
			for _, row := range m {
				for n := range row {
					row[n] = rng.Intn(4) - rng.Intn(8)/7
				}
			}
			if len(m) > 0 && rng.Intn(4) == 0 {
				i := rng.Intn(len(m))
				m[i] = m[i][:rng.Intn(len(capacity))]
			}
		}
		return (CheckCapacity(capacity, m) == nil) == checkOracle(capacity, m)
	}
	if err := quick.Check(prop, testutil.QuickConfig(2000)); err != nil {
		t.Error(err)
	}
}

// deltaCase draws a cluster, a valid current allocation with its usage
// totals, and a proposal that mixes every way a row can come back: the
// current row's own slice, an equal copy, a new row, a prefix of the
// current row (its first cell, not its length), a negative cell, another
// job's current row, a slice proposed for an earlier job too, and a row
// that fits only if the unchanged rows are left out of the sum.
func deltaCase(rng *rand.Rand) (capacity []int, current ga.Matrix, usage []int, proposed ga.Matrix) {
	nodes, jobs := 1+rng.Intn(5), 1+rng.Intn(6)
	capacity, free := make([]int, nodes), make([]int, nodes)
	for n := range capacity {
		capacity[n] = rng.Intn(7)
		free[n] = capacity[n]
	}
	current, usage = ga.NewMatrix(jobs, nodes), make([]int, nodes)
	for _, row := range current {
		for n := range row {
			if rng.Intn(3) == 0 {
				row[n] = rng.Intn(free[n] + 1)
				free[n] -= row[n]
				usage[n] += row[n]
			}
		}
	}
	proposed = make(ga.Matrix, jobs)
	for i := range proposed {
		switch kind := rng.Intn(12); {
		case kind < 4:
			proposed[i] = current[i]
		case kind == 4:
			proposed[i] = append([]int(nil), current[i]...)
		case kind == 5:
			proposed[i] = make([]int, nodes)
			for n := range proposed[i] {
				proposed[i][n] = rng.Intn(3)
			}
		case kind == 6:
			proposed[i] = current[i][:rng.Intn(nodes)]
		case kind == 7:
			proposed[i] = append([]int(nil), current[i]...)
			proposed[i][rng.Intn(nodes)] = -1 - rng.Intn(2)
		case kind == 8:
			proposed[i] = current[rng.Intn(jobs)]
		case kind == 9 && i > 0:
			proposed[i] = proposed[rng.Intn(i)]
		default: // one GPU more than the other jobs leave on a node
			proposed[i] = make([]int, nodes)
			n := rng.Intn(nodes)
			proposed[i][n] = free[n] + current[i][n] + 1
		}
	}
	return capacity, current, usage, proposed
}

// TestStepDeltaValidationMatchesCheckCapacity: given the view's usage
// totals Step validates only the rows that changed, and must accept and
// refuse exactly what CheckCapacity over the whole proposed matrix does,
// with the same error, and flag exactly the rows whose cells differ. The
// current allocation is valid, as a backend's is; the proposal is
// deltaCase's.
func TestStepDeltaValidationMatchesCheckCapacity(t *testing.T) {
	refusals, acceptances := 0, 0
	prop := func(seed int64) bool {
		capacity, current, usage, proposed := deltaCase(rand.New(rand.NewSource(seed)))
		jobs := len(current)
		want := CheckCapacity(capacity, proposed)
		v := view(jobs, nil)
		v.Capacity, v.Current, v.Usage = capacity, current, slices.Clone(usage)
		b := &fakeBackend{view: v}
		_, err := Step(b, nil, fixedPolicy{proposed}, 0)
		if want != nil {
			refusals++
			return err != nil && b.committed == nil && strings.HasSuffix(err.Error(), ": "+want.Error())
		}
		acceptances++
		if err != nil || len(b.committed) != jobs {
			return false
		}
		for i := range proposed {
			if !ga.SameRow(b.committed[i], proposed[i]) || b.changed[i] == slices.Equal(current[i], proposed[i]) {
				return false
			}
		}
		return slices.Equal(v.Usage, usage) // the view's totals are not Step's scratch
	}
	if err := quick.Check(prop, testutil.QuickConfig(3000)); err != nil {
		t.Error(err)
	}
	if refusals < 300 || acceptances < 300 {
		t.Errorf("%d refusals and %d acceptances: the cases do not cover both sides", refusals, acceptances)
	}
}

// install installs the given slots' rows and fails the test on a refusal.
func install(t *testing.T, l *Ledger, slots []int, rows ga.Matrix) {
	t.Helper()
	if err := l.Install(slots, rows); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerInstallReplacesAndReleases(t *testing.T) {
	l := NewLedger([]int{4, 4})
	a, b, c := l.Add(), l.Add(), l.Add()
	install(t, l, []int{a}, ga.Matrix{{2, 0}})
	install(t, l, []int{b}, ga.Matrix{{2, 2}})
	if u := l.Usage(); u[0] != 4 || u[1] != 2 {
		t.Errorf("usage = %v, want [4 2]", u)
	}
	// Over capacity on node 0, and refused whole: c keeps the zero row.
	if err := l.Install([]int{c}, ga.Matrix{{1, 1}}); err == nil {
		t.Error("oversubscription not rejected")
	}
	if !ga.SameRow(l.Row(c), l.Zero()) {
		t.Errorf("refused install left %v behind", l.Row(c))
	}
	// Rebinding a replaces the old row, not adds to it.
	install(t, l, []int{a}, ga.Matrix{{0, 1}})
	if u := l.Usage(); u[0] != 2 || u[1] != 3 {
		t.Errorf("usage after rebind = %v, want [2 3]", u)
	}
	// An all-zero row gives the GPUs back.
	release := []int{0, 0}
	install(t, l, []int{a}, ga.Matrix{release})
	if u := l.Usage(); u[0] != 2 || u[1] != 2 {
		t.Errorf("usage after release = %v, want [2 2]", u)
	}
	if !ga.SameRow(l.Row(a), release) {
		t.Errorf("a holds %v, not the slice it was given", l.Row(a))
	}
}

func TestLedgerRejectsMalformedRows(t *testing.T) {
	l := NewLedger([]int{4})
	a := l.Add()
	if err := l.Install([]int{a}, ga.Matrix{{1, 1}}); err == nil {
		t.Error("wrong-shape allocation accepted")
	}
	if err := l.Install([]int{a}, ga.Matrix{{-1}}); err == nil {
		t.Error("negative allocation accepted")
	}
	if err := l.Install([]int{a}, ga.Matrix{{1}, {1}}); err == nil {
		t.Error("two rows for one slot accepted")
	}
}

func TestInstallValidatesAgainstWholeLedger(t *testing.T) {
	l := NewLedger([]int{4, 4})
	a, b, outside := l.Add(), l.Add(), l.Add()
	m := ga.Matrix{{3, 0}, {3, 0}} // node 0 oversubscribed in aggregate
	if err := l.Install([]int{a, b}, m); err == nil {
		t.Error("aggregate oversubscription accepted")
	}
	ok := ga.Matrix{{3, 0}, {1, 2}}
	install(t, l, []int{a, b}, ok)
	// A slot outside the install holds node 1's last two GPUs: rows that
	// fit on their own but not beside that row are refused.
	install(t, l, []int{outside}, ga.Matrix{{0, 2}})
	if err := l.Install([]int{a, b}, ga.Matrix{{3, 0}, {1, 3}}); err == nil {
		t.Error("rows oversubscribing a node used by a slot outside them accepted")
	}
	if u := l.Usage(); u[0] != 4 || u[1] != 4 {
		t.Errorf("usage = %v after a refused install, want [4 4]", u)
	}
	// Only the given slots are rebound.
	install(t, l, []int{b}, ga.Matrix{{0, 2}})
	if !ga.SameRow(l.Row(a), ok[0]) || !slices.Equal(l.Row(b), []int{0, 2}) {
		t.Errorf("after a partial install a = %v, b = %v", l.Row(a), l.Row(b))
	}
}

// TestInstallMatchesCheckCapacity: Install accepts exactly when
// CheckCapacity accepts the whole matrix the install would leave, with the
// same error. An accepted install keeps the slices it was given and moves
// the usage totals to that matrix's column sums; a refused one leaves the
// usage totals and every row as they were, by slice identity. The ledger
// holds deltaCase's current allocation, and every slot whose proposed row
// is not its own current slice is installed, in slot order, as the
// backends install.
func TestInstallMatchesCheckCapacity(t *testing.T) {
	refusals, acceptances := 0, 0
	prop := func(seed int64) bool {
		capacity, current, usage, proposed := deltaCase(rand.New(rand.NewSource(seed)))
		l := NewLedger(capacity)
		var all, slots []int
		var rows ga.Matrix
		after := slices.Clone(current)
		for i := range current {
			all = append(all, l.Add())
			if !ga.SameRow(proposed[i], current[i]) {
				slots, rows, after[i] = append(slots, i), append(rows, proposed[i]), proposed[i]
			}
		}
		if l.Install(all, current) != nil || !slices.Equal(l.Usage(), usage) {
			return false
		}
		held, totals := l.Usage(), slices.Clone(l.Usage())
		want := CheckCapacity(capacity, after)
		err := l.Install(slots, rows)
		if want != nil {
			refusals++
			if err == nil || err.Error() != want.Error() || !ga.SameRow(l.Usage(), held) || !slices.Equal(held, totals) {
				return false
			}
			after = current
		} else {
			acceptances++
			if err != nil || CheckCapacity(capacity, after) != nil {
				return false
			}
			for n := range totals {
				totals[n] = 0
				for _, row := range after {
					totals[n] += row[n]
				}
			}
			if !slices.Equal(l.Usage(), totals) {
				return false
			}
		}
		for i := range after {
			if !ga.SameRow(l.Row(i), after[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickConfig(3000)); err != nil {
		t.Error(err)
	}
	if refusals < 300 || acceptances < 300 {
		t.Errorf("%d refusals and %d acceptances: the cases do not cover both sides", refusals, acceptances)
	}
}
