package admit

import (
	"fmt"
	"maps"
)

// AlwaysAdmit admits every arrival — the no-op admission policy, and the
// behavior of a disabled admission stage.
type AlwaysAdmit struct{}

// Name implements Admitter.
func (AlwaysAdmit) Name() string { return AdmitAlways }

// Admit implements Admitter.
func (AlwaysAdmit) Admit(Request) (bool, string) { return true, "" }

// TokenBucket rate-limits admissions: the bucket starts full at capacity
// tokens, refills continuously at refill tokens per second, and each
// admitted job spends one token. An arrival finding less than one token
// is rejected. Refill is computed from request submission times (which
// arrive in nondecreasing order), never from a processing clock, so the
// decision sequence is a pure function of the trace.
type TokenBucket struct {
	capacity float64
	refill   float64
	tokens   float64
	last     float64
}

// NewTokenBucket builds a bucket that starts full. capacity and refill
// are used as given (zero means zero; Options-level defaulting has
// already happened by the time this is called).
func NewTokenBucket(capacity, refill float64) *TokenBucket {
	return &TokenBucket{capacity: capacity, refill: refill, tokens: capacity}
}

// Name implements Admitter.
func (b *TokenBucket) Name() string { return AdmitTokenBucket }

// Admit implements Admitter.
func (b *TokenBucket) Admit(r Request) (bool, string) {
	if r.Time > b.last {
		b.tokens += (r.Time - b.last) * b.refill
		if b.tokens > b.capacity {
			b.tokens = b.capacity
		}
		b.last = r.Time
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, ""
	}
	return false, fmt.Sprintf("token-bucket: %.2f of %.0f tokens at t=%.0fs", b.tokens, b.capacity, r.Time)
}

// TenantQuota caps the number of admitted jobs per tenant over the whole
// run. A tenant listed with quota 0 is an explicit zero and is rejected
// outright; unlisted tenants fall back to the default quota (0 =
// unlimited, negative = explicit zero). Rejections carry the tenant's
// running rejection count in the reason ("reject with count").
type TenantQuota struct {
	quotas   map[string]int
	def      int
	admitted map[string]int
	rejected map[string]int
}

// NewTenantQuota copies the quota table so later mutation of the caller's
// map cannot change decisions mid-run.
func NewTenantQuota(quotas map[string]int, defaultQuota int) *TenantQuota {
	q := &TenantQuota{
		quotas:   make(map[string]int, len(quotas)),
		def:      defaultQuota,
		admitted: make(map[string]int),
		rejected: make(map[string]int),
	}
	maps.Copy(q.quotas, quotas)
	return q
}

// Name implements Admitter.
func (q *TenantQuota) Name() string { return AdmitQuota }

// Admit implements Admitter.
func (q *TenantQuota) Admit(r Request) (bool, string) {
	limit, listed := q.quotas[r.Tenant]
	if !listed {
		if q.def == 0 { // zero value: unlimited for unlisted tenants
			q.admitted[r.Tenant]++
			return true, ""
		}
		limit = q.def
	}
	if limit < 0 { // explicit zero via negative default
		limit = 0
	}
	if q.admitted[r.Tenant] < limit {
		q.admitted[r.Tenant]++
		return true, ""
	}
	q.rejected[r.Tenant]++
	return false, fmt.Sprintf("quota: tenant %q at %d of %d admitted (rejection #%d)",
		r.Tenant, q.admitted[r.Tenant], limit, q.rejected[r.Tenant])
}
