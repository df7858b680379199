package sim

import (
	"repro/internal/sched"
)

// ClusterAutoscaleConfig enables the Sec. 4.2.2 multi-job cloud
// autoscaling mode of the simulator: PolluxSched grows or shrinks the
// cluster so that UTILITY (Eqn. 17) stays within [LowUtil, HighUtil].
type ClusterAutoscaleConfig struct {
	MinNodes, MaxNodes int
	LowUtil, HighUtil  float64
	// Interval between autoscaling decisions; defaults to the scheduling
	// interval.
	Interval float64
	// ProvisionDelay is how long newly requested nodes take to join;
	// the zero value takes the 60 s default, a negative value means
	// instant provisioning. Releases are immediate.
	ProvisionDelay float64
}

func (a *ClusterAutoscaleConfig) defaults(schedInterval float64) {
	if a.MinNodes <= 0 {
		a.MinNodes = 1
	}
	if a.MaxNodes < a.MinNodes {
		a.MaxNodes = a.MinNodes
	}
	if a.LowUtil <= 0 {
		a.LowUtil = 0.55
	}
	if a.HighUtil <= a.LowUtil {
		a.HighUtil = 0.75
	}
	if a.Interval <= 0 {
		a.Interval = schedInterval
	}
	if a.ProvisionDelay < 0 {
		a.ProvisionDelay = 0
	} else if a.ProvisionDelay == 0 {
		a.ProvisionDelay = 60
	}
}

// autoscaleTick runs one cluster-size decision. Only Pollux policies can
// drive it (the decision requires the goodput speedup model); other
// policies leave the cluster at its configured size.
func (c *Cluster) autoscaleTick() {
	as := c.cfg.Autoscale
	pollux, ok := c.policy.(*sched.Pollux)
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
	want := pollux.DesiredClusterNodes(view, as.MinNodes, as.MaxNodes, as.LowUtil, as.HighUtil)

	switch {
	case want > c.activeNodes+c.provisioning:
		add := want - c.activeNodes - c.provisioning
		c.provisioning += add
		c.provisionAt = c.now + as.ProvisionDelay
	case want < c.activeNodes:
		// Release the highest-numbered nodes immediately; evict any
		// replicas placed there (they will be rescheduled with a
		// restart).
		c.activeNodes = want
		for _, j := range act {
			changed := false
			for n := c.activeNodes; n < len(j.alloc); n++ {
				if j.alloc[n] > 0 {
					j.alloc[n] = 0
					changed = true
				}
			}
			if changed {
				j.Placement = sched.PlacementOf(j.alloc)
				if j.Placement.GPUs > 0 {
					j.RestartUntil = c.now + c.cfg.RestartDelay
				}
			}
		}
		c.recomputeInterference()
	}
}
