// Package admit is the multi-tenant serving front end that runs ahead of
// the scheduler: an admission stage that gates each job arrival (a
// production cluster serving heavy multi-user traffic cannot schedule
// everything it is sent, unlike the paper's traces), and a priority stage
// that orders the job snapshot before runtime.Step hands it to
// policy.Schedule. The pipeline is
//
//	arrivals ──▶ admission ──rejected──▶ (counted per tenant)
//	                │ admitted
//	                ▼
//	            priority ──▶ runtime.Step ──▶ policy.Schedule
//
// modeled on BLIS's admission→routing pipeline (always-admit and
// token-bucket admission; constant and SLO-based priority).
//
// One FrontEnd instance is the single seam shared by every deployment of
// the control loop — the trace-driven simulator's engines and the
// live-cluster/replay testbed. Admission decisions are a pure function of
// the arrival sequence (tenant, submit time, requested GPUs, presented in
// nondecreasing submit order) and never of the clock that processes them,
// so the same trace produces bit-identical per-tenant admit/reject
// sequences in the simulator and in cluster.Replay; the cross-deployment
// parity test pins this.
package admit

import (
	"fmt"
	"sort"

	"repro/internal/ga"
	"repro/internal/sched"
)

// Request is one job arrival presented to the admission stage.
type Request struct {
	Job    int     // workload job ID
	Tenant string  // owning tenant; "" for single-tenant traces
	Time   float64 // submission time in seconds from trace start
	GPUs   int     // GPUs requested at submission
}

// Decision records one admission outcome, in arrival order.
type Decision struct {
	Request
	Admitted bool
	Reason   string // "" when admitted; the rejecting policy's reason otherwise
}

// Admitter decides job admission. Requests are presented in nondecreasing
// Time order, and implementations must derive decisions only from the
// request sequence (never from wall clocks or external state), so that
// every deployment of the control loop reproduces the same decisions.
type Admitter interface {
	Name() string
	Admit(r Request) (ok bool, reason string)
}

// Admission policy names accepted by Options.Admission.
const (
	AdmitAlways      = "always"
	AdmitTokenBucket = "token-bucket"
	AdmitQuota       = "quota"
)

// Priority policy names accepted by Options.Priority.
const (
	PriorityConstant = "constant"
	PrioritySLO      = "slo"
)

// Options configures the serving front end. The zero value means "no
// front end at all" — every deployment treats a nil *Options (and a nil
// *FrontEnd) as admit-everything, keep-snapshot-order.
//
// BucketCapacity, BucketRefill and DefaultQuota follow the explicit-zero
// convention pollux-vet's zerodefault check polices (as do
// sched.PolluxOptions.FullEvery and cluster.Trainer.Compression): 0
// selects the default and a negative value means an explicit zero, which
// the -bucket-capacity, -bucket-refill and -default-quota flags pass
// through. A Quotas entry expresses "explicitly zero" by being present
// and is never rewritten by defaulting.
type Options struct {
	// Admission selects the admission policy: "" or "always" admits
	// everything; "token-bucket" rate-limits arrivals; "quota" caps
	// admitted jobs per tenant.
	Admission string

	// BucketCapacity and BucketRefill shape the token bucket
	// (Admission == "token-bucket"): the bucket starts full at Capacity
	// tokens, refills at Refill tokens per second, and each admitted job
	// costs one token. Zero values take the defaults (capacity 16 jobs,
	// refill 1 job per minute); a negative value is an explicit zero —
	// explicit-zero capacity rejects every arrival, explicit-zero refill
	// admits only the initial Capacity burst and nothing after.
	BucketCapacity float64
	BucketRefill   float64

	// Quotas caps admitted jobs per tenant over the whole run
	// (Admission == "quota"). An entry PRESENT with value 0 is an
	// explicit zero — that tenant is rejected outright — and defaulting
	// never rewrites it (presence in the map is the unset/set
	// distinction). Tenants absent from the map fall back to
	// DefaultQuota: 0 means unlimited (the zero value must not reject
	// traffic), negative is an explicit zero for unlisted tenants.
	Quotas       map[string]int
	DefaultQuota int

	// Priority selects the ordering stage: "" or "constant" keeps the
	// snapshot order (submission order in both deployments); "slo"
	// orders by earliest SLO deadline first, deadline-less jobs last,
	// ties broken by submission time then job ID.
	Priority string
}

// TenantStats aggregates one tenant's front-end counters.
type TenantStats struct {
	Tenant    string
	Submitted int // arrivals presented to admission
	Admitted  int
	Rejected  int
	// QueueDepthSum accumulates, over observed scheduling rounds, the
	// number of this tenant's admitted jobs left without GPUs by the
	// round's committed allocation. Divide by Rounds for the mean.
	QueueDepthSum float64
}

// FrontEnd is the stateful admission + priority pipeline owned by one
// deployment (one simulator run, one scheduler service). A nil *FrontEnd
// is valid everywhere and means "no front end": Arrive admits, Order
// keeps the snapshot order, ObserveRound does nothing.
type FrontEnd struct {
	admitter Admitter
	priority string

	decisions []Decision
	stats     map[string]*TenantStats
	rounds    int
}

// New builds a FrontEnd from options. A nil opts returns a nil FrontEnd
// (no front end), which every method accepts.
func New(opts *Options) (*FrontEnd, error) {
	if opts == nil {
		return nil, nil
	}
	f := &FrontEnd{stats: make(map[string]*TenantStats)}

	switch opts.Priority {
	case "", PriorityConstant:
		f.priority = PriorityConstant
	case PrioritySLO:
		f.priority = PrioritySLO
	default:
		return nil, fmt.Errorf("admit: unknown priority policy %q (want %q or %q)",
			opts.Priority, PriorityConstant, PrioritySLO)
	}

	switch opts.Admission {
	case "", AdmitAlways:
		f.admitter = AlwaysAdmit{}
	case AdmitTokenBucket:
		capacity, refill := opts.BucketCapacity, opts.BucketRefill
		if capacity == 0 {
			capacity = 16
		} else if capacity < 0 {
			capacity = 0 // explicit zero
		}
		if refill == 0 {
			refill = 1.0 / 60
		} else if refill < 0 {
			refill = 0 // explicit zero
		}
		f.admitter = NewTokenBucket(capacity, refill)
	case AdmitQuota:
		f.admitter = NewTenantQuota(opts.Quotas, opts.DefaultQuota)
	default:
		return nil, fmt.Errorf("admit: unknown admission policy %q (want %q, %q, or %q)",
			opts.Admission, AdmitAlways, AdmitTokenBucket, AdmitQuota)
	}
	return f, nil
}

// AdmissionName returns the active admission policy's name ("always" for
// a nil front end).
func (f *FrontEnd) AdmissionName() string {
	if f == nil {
		return AdmitAlways
	}
	return f.admitter.Name()
}

// PriorityName returns the active priority policy's name ("constant" for
// a nil front end).
func (f *FrontEnd) PriorityName() string {
	if f == nil {
		return PriorityConstant
	}
	return f.priority
}

// Arrive runs the admission stage on one job arrival and records the
// decision. Deployments must present arrivals exactly once per job, in
// nondecreasing Time order. A nil front end admits everything.
func (f *FrontEnd) Arrive(r Request) bool {
	if f == nil {
		return true
	}
	ok, reason := f.admitter.Admit(r)
	f.decisions = append(f.decisions, Decision{Request: r, Admitted: ok, Reason: reason})
	st := f.tenant(r.Tenant)
	st.Submitted++
	if ok {
		st.Admitted++
	} else {
		st.Rejected++
	}
	return ok
}

// Decisions returns the admission log in arrival order. The slice is the
// front end's own; callers must not mutate it.
func (f *FrontEnd) Decisions() []Decision {
	if f == nil {
		return nil
	}
	return f.decisions
}

// Order runs the priority stage on a scheduling-round snapshot: it
// permutes view.Jobs and view.Current (kept row-aligned) into scheduling
// order and returns the permutation, where perm[i] is the original index
// of the job now at position i. It returns nil when the order is
// unchanged (the constant policy, or an SLO sort that is already in
// order), so the common path stays bit-identical to no front end at all.
func (f *FrontEnd) Order(view *sched.ClusterView) []int {
	if f == nil || f.priority == PriorityConstant || len(view.Jobs) < 2 {
		return nil
	}
	perm := make([]int, len(view.Jobs))
	for i := range perm {
		perm[i] = i
	}
	jobs := view.Jobs
	sort.SliceStable(perm, func(a, b int) bool {
		return sloLess(jobs[perm[a]], jobs[perm[b]])
	})
	identity := true
	for i, p := range perm {
		if i != p {
			identity = false
			break
		}
	}
	if identity {
		return nil
	}
	permuted := make([]sched.JobView, len(jobs))
	current := make(ga.Matrix, len(jobs))
	for i, p := range perm {
		permuted[i] = jobs[p]
		current[i] = view.Current[p]
	}
	view.Jobs = permuted
	view.Current = current
	return perm
}

// sloLess is the earliest-deadline-first ordering: jobs with SLO
// deadlines before jobs without, earlier deadlines first, ties broken by
// submission time and then job ID so the order is deterministic.
func sloLess(a, b sched.JobView) bool {
	ad, bd := a.Deadline > 0, b.Deadline > 0
	if ad != bd {
		return ad
	}
	//pollux:floateq-ok comparator tie-break on values copied verbatim from the trace; equality is a genuine tie
	if ad && a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	//pollux:floateq-ok comparator tie-break on values copied verbatim from the trace; equality is a genuine tie
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// ObserveRound accumulates per-tenant queue depths after a scheduling
// round: every job in the snapshot whose committed row holds no GPUs is
// counted as queued for its tenant. view and m must be row-aligned (any
// consistent order; the counts are order-independent).
func (f *FrontEnd) ObserveRound(view *sched.ClusterView, m ga.Matrix) {
	if f == nil {
		return
	}
	f.rounds++
	for i, j := range view.Jobs {
		allocated := false
		for _, g := range m[i] {
			if g > 0 {
				allocated = true
				break
			}
		}
		if !allocated {
			f.tenant(j.Tenant).QueueDepthSum++
		}
	}
}

// Rounds returns the number of scheduling rounds observed.
func (f *FrontEnd) Rounds() int {
	if f == nil {
		return 0
	}
	return f.rounds
}

// Stats returns a copy of the per-tenant counters, keyed by tenant name.
func (f *FrontEnd) Stats() map[string]TenantStats {
	if f == nil {
		return nil
	}
	out := make(map[string]TenantStats, len(f.stats))
	for name, st := range f.stats {
		out[name] = *st
	}
	return out
}

func (f *FrontEnd) tenant(name string) *TenantStats {
	st, ok := f.stats[name]
	if !ok {
		st = &TenantStats{Tenant: name}
		f.stats[name] = st
	}
	return st
}
