package cluster

import (
	"slices"
	"sort"

	"repro/internal/sched"
	"repro/internal/status"
)

// Status assembles a read-only point-in-time view of the service for the
// HTTP status endpoint: cluster occupancy, job-queue depths, and the
// front end's per-tenant admission counters. Occupancy and queue depths
// come from one hold of the ledger's lock — never the scheduling lock —
// so they agree with each other and serving them cannot delay or reorder
// scheduling rounds. Of the registered jobs, Running hold GPUs, Pending
// are admitted but currently allocated none (the queue depth) and Done
// reported completion: those are the jobs that have left the live list or
// are about to, so the hold costs the live jobs only.
func (s *Service) Status() status.Cluster {
	s.state.mu.Lock()
	st := status.Cluster{
		Nodes: len(s.state.capacity),
		Usage: slices.Clone(s.state.usage),
		Jobs:  len(s.order),
	}
	for n, c := range s.state.capacity {
		st.GPUsTotal += c
		st.GPUsUsed += s.state.usage[n]
	}
	for _, j := range s.live {
		switch {
		case j.done: // until the next round drops it
		case sched.PlacementOf(j.p.row).GPUs > 0:
			st.Running++
		default:
			st.Pending++
		}
	}
	st.Done = st.Jobs - st.Running - st.Pending
	fe := s.fe
	s.state.mu.Unlock()

	st.Admission = fe.AdmissionName()
	st.Priority = fe.PriorityName()
	rounds := fe.Rounds()
	stats := fe.Stats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := stats[name]
		t := status.Tenant{
			Name:      name,
			Submitted: ts.Submitted,
			Admitted:  ts.Admitted,
			Rejected:  ts.Rejected,
		}
		if rounds > 0 {
			t.AvgQueueDepth = ts.QueueDepthSum / float64(rounds)
		}
		st.Tenants = append(st.Tenants, t)
	}
	return st
}
