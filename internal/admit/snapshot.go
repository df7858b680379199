package admit

// State/RestoreState for FrontEnd: the admission stage is stateful (bucket
// fill, per-tenant quota counters, the decision log), so a restarted
// service must restore it or the post-restart admit/reject sequence would
// diverge from the uninterrupted run.
//
// A state is restored into a FrontEnd built by New from the same Options;
// the admitter state is a tagged union keyed by the policy name, and a
// name mismatch fails loudly. Maps are flattened to slices sorted by
// tenant so the canonical encoding is byte-stable.

import (
	"fmt"
	"sort"
)

// TenantCount is one tenant's counter in a serialized admitter state.
type TenantCount struct {
	Tenant string
	Count  int
}

// AdmitterState is the tagged union of per-policy admission state. Name
// selects the variant; AlwaysAdmit is stateless and uses none of the
// other fields.
type AdmitterState struct {
	Name string

	// Token bucket ("token-bucket"): current fill and last refill time.
	Tokens float64 `json:",omitempty"`
	Last   float64 `json:",omitempty"`

	// Tenant quota ("quota"): running per-tenant counters, sorted by
	// tenant. The quota table itself comes from Options at rebuild time.
	Admitted []TenantCount `json:",omitempty"`
	Rejected []TenantCount `json:",omitempty"`
}

// FrontEndState is the full serializable state of a FrontEnd.
type FrontEndState struct {
	Decisions []Decision    `json:",omitempty"`
	Tenants   []TenantStats `json:",omitempty"` // sorted by tenant name
	Rounds    int
	Admitter  AdmitterState
}

// sortedCounts flattens a tenant→count map into a tenant-sorted slice.
func sortedCounts(m map[string]int) []TenantCount {
	out := make([]TenantCount, 0, len(m))
	//pollux:order-ok the slice is sorted by tenant right after the loop
	for tenant, n := range m {
		out = append(out, TenantCount{Tenant: tenant, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// State captures the front end's complete restorable state. A nil front
// end returns nil.
func (f *FrontEnd) State() *FrontEndState {
	if f == nil {
		return nil
	}
	s := &FrontEndState{
		Decisions: append([]Decision(nil), f.decisions...),
		Rounds:    f.rounds,
		Admitter:  AdmitterState{Name: f.admitter.Name()},
	}
	names := make([]string, 0, len(f.stats))
	//pollux:order-ok names are sorted right after the loop
	for name := range f.stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Tenants = append(s.Tenants, *f.stats[name])
	}
	switch a := f.admitter.(type) {
	case *TokenBucket:
		s.Admitter.Tokens = a.tokens
		s.Admitter.Last = a.last
	case *TenantQuota:
		s.Admitter.Admitted = sortedCounts(a.admitted)
		s.Admitter.Rejected = sortedCounts(a.rejected)
	}
	return s
}

// RestoreState applies a saved state to a front end freshly built by New
// from the same Options. A policy mismatch between the snapshot and the
// rebuilt admitter fails loudly. Restoring a nil state into a nil front
// end is a no-op; any other nil combination is a configuration mismatch.
func (f *FrontEnd) RestoreState(s *FrontEndState) error {
	if f == nil || s == nil {
		if f == nil && s == nil {
			return nil
		}
		return fmt.Errorf("admit: front-end configuration does not match snapshot (one of them is absent)")
	}
	if s.Admitter.Name != f.admitter.Name() {
		return fmt.Errorf("admit: snapshot has admission policy %q, configuration builds %q", s.Admitter.Name, f.admitter.Name())
	}
	switch a := f.admitter.(type) {
	case *TokenBucket:
		a.tokens = s.Admitter.Tokens
		a.last = s.Admitter.Last
	case *TenantQuota:
		a.admitted = make(map[string]int, len(s.Admitter.Admitted))
		for _, tc := range s.Admitter.Admitted {
			a.admitted[tc.Tenant] = tc.Count
		}
		a.rejected = make(map[string]int, len(s.Admitter.Rejected))
		for _, tc := range s.Admitter.Rejected {
			a.rejected[tc.Tenant] = tc.Count
		}
	}
	f.decisions = append([]Decision(nil), s.Decisions...)
	f.rounds = s.Rounds
	f.stats = make(map[string]*TenantStats, len(s.Tenants))
	for i := range s.Tenants {
		st := s.Tenants[i]
		f.stats[st.Tenant] = &st
	}
	return nil
}
