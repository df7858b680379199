package admit

import (
	"reflect"
	"testing"

	"repro/internal/ga"
	"repro/internal/sched"
)

func mustNew(t *testing.T, opts *Options) *FrontEnd {
	t.Helper()
	f, err := New(opts)
	if err != nil {
		t.Fatalf("New(%+v): %v", opts, err)
	}
	return f
}

func req(job int, tenant string, at float64) Request {
	return Request{Job: job, Tenant: tenant, Time: at, GPUs: 1}
}

func TestNilFrontEndAdmitsEverything(t *testing.T) {
	f := mustNew(t, nil)
	if f != nil {
		t.Fatalf("New(nil) = %v, want nil front end", f)
	}
	if !f.Arrive(req(0, "a", 0)) {
		t.Error("nil front end rejected an arrival")
	}
	if got := f.Order(&sched.ClusterView{}); got != nil {
		t.Errorf("nil front end Order = %v, want nil", got)
	}
	f.ObserveRound(&sched.ClusterView{}, nil)
	if f.Decisions() != nil || f.Stats() != nil || f.Rounds() != 0 {
		t.Error("nil front end accumulated state")
	}
	if f.AdmissionName() != AdmitAlways || f.PriorityName() != PriorityConstant {
		t.Errorf("nil front end names = %q/%q", f.AdmissionName(), f.PriorityName())
	}
}

func TestNewRejectsUnknownPolicies(t *testing.T) {
	if _, err := New(&Options{Admission: "lottery"}); err == nil {
		t.Error("unknown admission policy accepted")
	}
	if _, err := New(&Options{Priority: "fifo"}); err == nil {
		t.Error("unknown priority policy accepted")
	}
}

// TestExplicitZeroNotRewritten pins the PR 2/PR 4 convention on the new
// option struct: defaulting replaces only true zero values, never an
// explicit zero (negative numerics, present-with-zero map entries).
func TestExplicitZeroNotRewritten(t *testing.T) {
	// Explicit-zero capacity: every arrival rejected, including the first.
	f := mustNew(t, &Options{Admission: AdmitTokenBucket, BucketCapacity: -1, BucketRefill: 0.25})
	if f.Arrive(req(0, "a", 0)) {
		t.Error("explicit-zero capacity admitted an arrival")
	}

	// Explicit-zero refill: the initial burst drains and never refills.
	f = mustNew(t, &Options{Admission: AdmitTokenBucket, BucketCapacity: 2, BucketRefill: -1})
	for i := 0; i < 2; i++ {
		if !f.Arrive(req(i, "a", float64(i))) {
			t.Fatalf("burst arrival %d rejected with 2-token bucket", i)
		}
	}
	if f.Arrive(req(2, "a", 1e9)) {
		t.Error("explicit-zero refill admitted after the burst drained")
	}

	// A quota entry present with value 0 is an explicit zero: that tenant
	// is rejected outright while unlisted tenants stay unlimited
	// (DefaultQuota zero value).
	f = mustNew(t, &Options{Admission: AdmitQuota, Quotas: map[string]int{"blocked": 0}})
	if f.Arrive(req(0, "blocked", 0)) {
		t.Error("explicit zero quota admitted a job")
	}
	if !f.Arrive(req(1, "other", 0)) {
		t.Error("unlisted tenant rejected under zero-value DefaultQuota")
	}

	// Negative DefaultQuota is the explicit zero for unlisted tenants.
	f = mustNew(t, &Options{Admission: AdmitQuota, Quotas: map[string]int{"listed": 1}, DefaultQuota: -1})
	if !f.Arrive(req(0, "listed", 0)) {
		t.Error("listed tenant rejected under its quota")
	}
	if f.Arrive(req(1, "unlisted", 0)) {
		t.Error("explicit-zero DefaultQuota admitted an unlisted tenant")
	}
}

func TestTokenBucketDefaults(t *testing.T) {
	// Zero values take the defaults: capacity 16, refill 1/min.
	f := mustNew(t, &Options{Admission: AdmitTokenBucket})
	for i := 0; i < 16; i++ {
		if !f.Arrive(req(i, "a", 0)) {
			t.Fatalf("arrival %d rejected inside default capacity", i)
		}
	}
	if f.Arrive(req(16, "a", 0)) {
		t.Error("arrival 16 admitted beyond default capacity")
	}
	if !f.Arrive(req(17, "a", 60)) {
		t.Error("arrival after one minute rejected despite default refill")
	}
}

// TestTokenBucketBurstBoundary exercises the boundary cases: a burst at
// one instant admits exactly capacity jobs, and refill credits admission
// exactly when a full token has accrued (power-of-two refill keeps the
// arithmetic exact).
func TestTokenBucketBurstBoundary(t *testing.T) {
	b := NewTokenBucket(3, 0.25) // one token per 4s
	for i := 0; i < 3; i++ {
		if ok, _ := b.Admit(req(i, "a", 10)); !ok {
			t.Fatalf("burst arrival %d rejected with capacity 3", i)
		}
	}
	if ok, reason := b.Admit(req(3, "a", 10)); ok {
		t.Error("burst arrival 3 admitted beyond capacity")
	} else if reason == "" {
		t.Error("rejection carried no reason")
	}
	// 2s later: half a token — still rejected.
	if ok, _ := b.Admit(req(4, "a", 12)); ok {
		t.Error("admitted with half a token")
	}
	// At t=16 the earlier partial refills have accumulated to >= 1 token
	// ((12-10)*0.25 + (16-12)*0.25 = 1.5): exactly one admission.
	if ok, _ := b.Admit(req(5, "a", 16)); !ok {
		t.Error("rejected with 1.5 tokens accrued")
	}
	if ok, _ := b.Admit(req(6, "a", 16)); ok {
		t.Error("admitted with 0.5 tokens left")
	}
}

func TestQuotaRejectsWithCount(t *testing.T) {
	q := NewTenantQuota(map[string]int{"b": 2}, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := q.Admit(req(i, "b", 0)); !ok {
			t.Fatalf("arrival %d rejected inside quota 2", i)
		}
	}
	if ok, reason := q.Admit(req(2, "b", 0)); ok {
		t.Error("arrival admitted beyond quota")
	} else if reason != `quota: tenant "b" at 2 of 2 admitted (rejection #1)` {
		t.Errorf("rejection reason = %q", reason)
	}
	if ok, reason := q.Admit(req(3, "b", 0)); ok || reason != `quota: tenant "b" at 2 of 2 admitted (rejection #2)` {
		t.Errorf("second rejection = %v %q", ok, reason)
	}
}

func TestFrontEndStatsAndDecisions(t *testing.T) {
	f := mustNew(t, &Options{Admission: AdmitQuota, Quotas: map[string]int{"b": 1}})
	f.Arrive(req(0, "a", 1))
	f.Arrive(req(1, "b", 2))
	f.Arrive(req(2, "b", 3))

	dec := f.Decisions()
	if len(dec) != 3 {
		t.Fatalf("got %d decisions, want 3", len(dec))
	}
	wantAdmitted := []bool{true, true, false}
	for i, d := range dec {
		if d.Admitted != wantAdmitted[i] {
			t.Errorf("decision %d admitted=%v, want %v", i, d.Admitted, wantAdmitted[i])
		}
	}
	stats := f.Stats()
	if st := stats["a"]; st.Submitted != 1 || st.Admitted != 1 || st.Rejected != 0 {
		t.Errorf("tenant a stats = %+v", st)
	}
	if st := stats["b"]; st.Submitted != 2 || st.Admitted != 1 || st.Rejected != 1 {
		t.Errorf("tenant b stats = %+v", st)
	}
}

// TestDecisionsDeterministic pins that two front ends built from the same
// options produce identical decision logs for the same arrival sequence —
// the property the cross-deployment parity test relies on.
func TestDecisionsDeterministic(t *testing.T) {
	opts := &Options{Admission: AdmitTokenBucket, BucketCapacity: 2, BucketRefill: 0.5}
	arrivals := []Request{
		req(0, "a", 0), req(1, "b", 0.5), req(2, "a", 1), req(3, "b", 4), req(4, "a", 4),
	}
	run := func() []Decision {
		f := mustNew(t, opts)
		for _, r := range arrivals {
			f.Arrive(r)
		}
		return f.Decisions()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("decision logs differ:\n%v\n%v", a, b)
	}
}

func view(jobs ...sched.JobView) *sched.ClusterView {
	v := &sched.ClusterView{Capacity: []int{4}, Jobs: jobs, Current: ga.NewMatrix(len(jobs), 1)}
	for i := range v.Current {
		v.Current[i][0] = i // distinct rows so permutation mistakes show
	}
	return v
}

func TestOrderConstantKeepsSnapshot(t *testing.T) {
	f := mustNew(t, &Options{})
	v := view(sched.JobView{ID: 0, Deadline: 100}, sched.JobView{ID: 1, Deadline: 50})
	if perm := f.Order(v); perm != nil {
		t.Errorf("constant priority returned perm %v", perm)
	}
	if v.Jobs[0].ID != 0 || v.Jobs[1].ID != 1 {
		t.Error("constant priority reordered the snapshot")
	}
}

func TestOrderSLO(t *testing.T) {
	f := mustNew(t, &Options{Priority: PrioritySLO})

	// Deadlines first (earliest first), deadline-less last; ties by
	// Submit then ID.
	v := view(
		sched.JobView{ID: 0, Submit: 10},                // no deadline
		sched.JobView{ID: 1, Submit: 20, Deadline: 500}, // later deadline
		sched.JobView{ID: 2, Submit: 30, Deadline: 100}, // earliest deadline
		sched.JobView{ID: 3, Submit: 5, Deadline: 500},  // deadline tie, earlier submit
	)
	perm := f.Order(v)
	wantPerm := []int{2, 3, 1, 0}
	if !reflect.DeepEqual(perm, wantPerm) {
		t.Fatalf("perm = %v, want %v", perm, wantPerm)
	}
	gotIDs := []int{v.Jobs[0].ID, v.Jobs[1].ID, v.Jobs[2].ID, v.Jobs[3].ID}
	if !reflect.DeepEqual(gotIDs, []int{2, 3, 1, 0}) {
		t.Errorf("job order = %v", gotIDs)
	}
	// Current rows must travel with their jobs.
	for i, p := range perm {
		if v.Current[i][0] != p {
			t.Errorf("row %d = %d, want original row %d", i, v.Current[i][0], p)
		}
	}

	// An already-ordered snapshot returns nil (bit-identical fast path).
	v = view(sched.JobView{ID: 0, Deadline: 100}, sched.JobView{ID: 1, Deadline: 200})
	if perm := f.Order(v); perm != nil {
		t.Errorf("in-order snapshot returned perm %v", perm)
	}
}

func TestObserveRoundQueueDepths(t *testing.T) {
	f := mustNew(t, &Options{})
	f.Arrive(req(0, "a", 0))
	f.Arrive(req(1, "b", 0))
	v := view(
		sched.JobView{ID: 0, Tenant: "a"},
		sched.JobView{ID: 1, Tenant: "b"},
		sched.JobView{ID: 2, Tenant: "b"},
	)
	m := ga.NewMatrix(3, 1)
	m[0][0] = 2 // tenant a allocated; both b jobs queued
	f.ObserveRound(v, m)
	m[2][0] = 1 // next round: one b job still queued
	f.ObserveRound(v, m)

	if f.Rounds() != 2 {
		t.Errorf("Rounds = %d, want 2", f.Rounds())
	}
	stats := f.Stats()
	if got := stats["a"].QueueDepthSum; got != 0 {
		t.Errorf("tenant a queue sum = %v, want 0", got)
	}
	if got := stats["b"].QueueDepthSum; got != 3 {
		t.Errorf("tenant b queue sum = %v, want 3", got)
	}
}
