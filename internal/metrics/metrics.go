// Package metrics provides the job-completion-time statistics used
// throughout the Pollux paper's evaluation: average and percentile JCT,
// makespan, and helpers for averaging results across repeated traces
// (Sec. 5.3 repeats every experiment over 8 generated traces).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/admit"
)

// Summary aggregates one scheduling run.
type Summary struct {
	Completed int
	Total     int
	AvgJCT    float64 // seconds
	P50JCT    float64
	P99JCT    float64
	Makespan  float64 // seconds from first submission to last completion

	// AvgEfficiency is the time-and-job-weighted mean statistical
	// efficiency across running jobs (the ~91% vs ~74% comparison in
	// Sec. 5.2.1).
	AvgEfficiency float64
	// AvgThroughputX and AvgGoodputX are optional relative factors
	// filled in by comparison helpers.
	AvgThroughputX float64
	AvgGoodputX    float64
}

// Percentile returns the p-th percentile (0-100) of xs using linear
// interpolation between order statistics. It panics on empty input or
// out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("metrics: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of range", p))
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Summarize computes a Summary from per-job completion times.
type JobRecord struct {
	Submit float64
	Finish float64 // 0 when not completed
	// Tenant is the owning tenant for multi-tenant runs ("" otherwise);
	// Deadline the absolute SLO deadline (0 = none). Rejected marks jobs
	// the admission stage turned away (they count in Total but can never
	// finish).
	Tenant   string
	Deadline float64
	Rejected bool
}

// Summarize builds JCT statistics from job records. Jobs that never
// finished are excluded from the JCT stats but counted in Total.
func Summarize(records []JobRecord) Summary {
	var jcts []float64
	first := math.Inf(1)
	last := 0.0
	completed := 0
	for _, r := range records {
		if r.Submit < first {
			first = r.Submit
		}
		if r.Finish > 0 {
			completed++
			jcts = append(jcts, r.Finish-r.Submit)
			if r.Finish > last {
				last = r.Finish
			}
		}
	}
	s := Summary{Completed: completed, Total: len(records)}
	if completed > 0 {
		s.AvgJCT = Mean(jcts)
		s.P50JCT = Percentile(jcts, 50)
		s.P99JCT = Percentile(jcts, 99)
		s.Makespan = last - first
	}
	return s
}

// Average element-wise averages summaries from repeated traces: counts
// accumulate, every other field is averaged — including the optional
// relative factors, which earlier versions silently dropped (sim.RunSeeds
// re-fills them from per-run results and is unaffected, but any other
// caller would have lost them).
func Average(runs []Summary) Summary {
	if len(runs) == 0 {
		return Summary{}
	}
	var out Summary
	n := float64(len(runs))
	for _, r := range runs {
		out.Completed += r.Completed
		out.Total += r.Total
		out.AvgJCT += r.AvgJCT / n
		out.P50JCT += r.P50JCT / n
		out.P99JCT += r.P99JCT / n
		out.Makespan += r.Makespan / n
		out.AvgEfficiency += r.AvgEfficiency / n
		out.AvgThroughputX += r.AvgThroughputX / n
		out.AvgGoodputX += r.AvgGoodputX / n
	}
	return out
}

// TenantSummary is one tenant's slice of a multi-tenant run: JCT
// statistics over the tenant's jobs plus the serving front end's
// admission counters and time-averaged queue depth.
type TenantSummary struct {
	Tenant  string
	Summary Summary

	Submitted int // arrivals presented to admission
	Admitted  int
	Rejected  int

	// AvgGoodput is the tenant's mean goodput (examples/s) over its
	// jobs' running time.
	AvgGoodput float64
	// AvgQueueDepth is the tenant's mean count of admitted-but-unallocated
	// jobs per scheduling round.
	AvgQueueDepth float64
	// SLOMet counts jobs that finished at or before their deadline, out
	// of SLOJobs jobs that carried one.
	SLOMet  int
	SLOJobs int
}

// SummarizeTenants groups job records by tenant and computes each
// tenant's JCT statistics and SLO attainment (admission counters and
// queue depths are the front end's and are filled in by the caller).
// Returns nil when no record carries a tenant.
func SummarizeTenants(records []JobRecord) map[string]TenantSummary {
	byTenant := make(map[string][]JobRecord)
	for _, r := range records {
		if r.Tenant != "" {
			byTenant[r.Tenant] = append(byTenant[r.Tenant], r)
		}
	}
	if len(byTenant) == 0 {
		return nil
	}
	out := make(map[string]TenantSummary, len(byTenant))
	for tenant, recs := range byTenant {
		ts := TenantSummary{Tenant: tenant, Summary: Summarize(recs)}
		for _, r := range recs {
			if r.Deadline > 0 && !r.Rejected {
				ts.SLOJobs++
				if r.Finish > 0 && r.Finish <= r.Deadline {
					ts.SLOMet++
				}
			}
		}
		out[tenant] = ts
	}
	return out
}

// SummarizeRunTenants is SummarizeTenants for a finished run: besides the
// JCT statistics it fills each tenant's admission counters and mean queue
// depth from the run's serving front end (nil means none: every job was
// implicitly admitted) and its goodput rate from the per-job goodput sums
// and running times, aligned with records and accumulated in that order.
// The simulator and the replay testbed both end a run here.
func SummarizeRunTenants(records []JobRecord, goodSum, runTime []float64, fe *admit.FrontEnd) map[string]TenantSummary {
	out := SummarizeTenants(records)
	type accum struct{ goodSum, runTime float64 }
	rates := make(map[string]*accum)
	for i, r := range records {
		if r.Tenant == "" {
			continue
		}
		ta := rates[r.Tenant]
		if ta == nil {
			ta = &accum{}
			rates[r.Tenant] = ta
		}
		ta.goodSum += goodSum[i]
		ta.runTime += runTime[i]
	}
	feStats := fe.Stats()
	// Each iteration fills only its own tenant's summary, so map order
	// does not matter.
	for tenant, ts := range out {
		if st, ok := feStats[tenant]; ok {
			ts.Submitted = st.Submitted
			ts.Admitted = st.Admitted
			ts.Rejected = st.Rejected
			if rounds := fe.Rounds(); rounds > 0 {
				ts.AvgQueueDepth = st.QueueDepthSum / float64(rounds)
			}
		} else {
			ts.Submitted = ts.Summary.Total
			ts.Admitted = ts.Summary.Total
		}
		if ta := rates[tenant]; ta != nil && ta.runTime > 0 {
			ts.AvgGoodput = ta.goodSum / ta.runTime
		}
		out[tenant] = ts
	}
	return out
}

// AverageTenants element-wise averages per-tenant summaries from
// repeated traces, mirroring Average: counts accumulate, rates and JCT
// statistics are averaged. Tenants missing from a run contribute zeros
// for that run (the divisor is always len(runs)).
func AverageTenants(runs []map[string]TenantSummary) map[string]TenantSummary {
	if len(runs) == 0 {
		return nil
	}
	n := float64(len(runs))
	perTenant := make(map[string][]Summary)
	out := make(map[string]TenantSummary)
	for _, run := range runs {
		for tenant, ts := range run {
			o := out[tenant]
			o.Tenant = tenant
			o.Submitted += ts.Submitted
			o.Admitted += ts.Admitted
			o.Rejected += ts.Rejected
			o.AvgGoodput += ts.AvgGoodput / n
			o.AvgQueueDepth += ts.AvgQueueDepth / n
			o.SLOMet += ts.SLOMet
			o.SLOJobs += ts.SLOJobs
			out[tenant] = o
			perTenant[tenant] = append(perTenant[tenant], ts.Summary)
		}
	}
	for tenant, summaries := range perTenant {
		// Pad with zero summaries for runs the tenant was absent from so
		// the per-field divisor matches every other averaged metric.
		for len(summaries) < len(runs) {
			summaries = append(summaries, Summary{})
		}
		o := out[tenant]
		o.Summary = Average(summaries)
		out[tenant] = o
	}
	return out
}

// Hours formats a duration in seconds as fractional hours, e.g. "1.2h".
func Hours(seconds float64) string {
	return fmt.Sprintf("%.1fh", seconds/3600)
}

// Table renders rows of cells with aligned columns for experiment output.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
