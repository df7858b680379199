package sim

import (
	"slices"

	"repro/internal/sched"
)

// ClusterAutoscaleConfig enables the Sec. 4.2.2 multi-job cloud
// autoscaling mode of the simulator: every scheduling round PolluxSched
// grows or shrinks the cluster between MinNodes and MaxNodes so that
// UTILITY (Eqn. 17) stays within sched's utility band. Requested nodes
// join after ProvisionDelay.
type ClusterAutoscaleConfig struct {
	MinNodes, MaxNodes int
}

// resolved returns the bounds in force on a cluster of the given size: at
// least one node, at most all of them.
func (a ClusterAutoscaleConfig) resolved(nodes int) ClusterAutoscaleConfig {
	if a.MaxNodes > nodes || a.MaxNodes <= 0 {
		a.MaxNodes = nodes
	}
	if a.MinNodes <= 0 {
		a.MinNodes = 1
	}
	if a.MaxNodes < a.MinNodes {
		a.MaxNodes = a.MinNodes
	}
	return a
}

// clusterSizer is the half of sched.Pollux that cluster autoscaling calls,
// so a policy wrapped to observe its rounds can still drive it.
type clusterSizer interface {
	DesiredClusterNodes(v *sched.ClusterView, minNodes, maxNodes int) int
}

// autoscaleTick runs one cluster-size decision. Only Pollux policies can
// drive it (the decision requires the goodput speedup model); other
// policies leave the cluster at its configured size.
func (c *Cluster) autoscaleTick() {
	as := c.cfg.Autoscale
	pollux, ok := c.policy.(clusterSizer)
	if !ok {
		return
	}

	// Finish provisioning first.
	if c.provisioning > 0 && c.now >= c.provisionAt {
		c.activeNodes += c.provisioning
		c.provisioning = 0
	}

	act := c.active()
	if len(act) == 0 {
		return
	}
	// The decision view advertises the maximum cluster size; the binary
	// search picks the size worth paying for.
	view := &sched.ClusterView{Now: c.now, Capacity: make([]int, as.MaxNodes)}
	for i := range view.Capacity {
		view.Capacity[i] = c.cfg.GPUsPerNode
	}
	for _, j := range act {
		view.Jobs = append(view.Jobs, sched.JobView{
			ID:      j.wj.ID,
			Model:   j.Agent.Report(),
			GPUCap:  j.Agent.GPUCap(),
			GPUTime: j.GPUTime,
		})
	}
	want := pollux.DesiredClusterNodes(view, as.MinNodes, as.MaxNodes)

	switch {
	case want > c.activeNodes+c.provisioning:
		add := want - c.activeNodes - c.provisioning
		c.provisioning += add
		c.provisionAt = c.now + ProvisionDelay
	case want < c.activeNodes:
		// Release the highest-numbered nodes immediately; evict any
		// replicas placed there (they will be rescheduled with a
		// restart).
		c.activeNodes = want
		for _, j := range act {
			if sched.PlacementOf(j.alloc[c.activeNodes:]).GPUs == 0 {
				continue
			}
			row := slices.Clone(j.alloc)
			clear(row[c.activeNodes:])
			c.setRow(j, row)
			j.Placement = sched.PlacementOf(row)
			if j.Placement.GPUs > 0 {
				j.RestartUntil = c.now + c.restartDelay
			}
		}
		c.recomputeInterference()
	}
}
