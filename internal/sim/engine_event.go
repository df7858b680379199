package sim

import "repro/internal/eventsim"

// Event kinds for the cluster event engine, in intra-instant execution
// order within each eventsim class. At one timestamp the agent round runs
// before provisioning completion, which runs before the scheduling round
// (mirroring the tick engine's per-tick sequence); all of those run
// before any per-job event at the same instant.
const (
	// Cluster-class kinds.
	evAgent     = iota // agent report/tune round, every AgentInterval
	evProvision        // cluster-autoscale provisioning completion
	evSched            // autoscale decision + scheduling round, every SchedInterval
	// Job-class kinds.
	evArrival   // job submission
	evRestart   // checkpoint-restart delay expiry
	evMilestone // predicted decay-boundary crossing or job finish
)

// runEvent is the discrete-event engine: the clock jumps between pending
// events — job arrivals, agent report/tune rounds, scheduling rounds,
// provisioning completions, restart expiries, and the closed-form
// predicted progress milestones (learning-rate decay crossings and job
// finishes) — instead of stepping a fixed tick.
func (c *Cluster) runEvent() Result {
	cfg := c.cfg
	var q eventsim.Queue

	byID := make(map[int]*jobState, len(c.jobs))
	for _, j := range c.jobs {
		byID[j.wj.ID] = j
		q.Push(eventsim.Event{
			Time: j.wj.Submit, Class: eventsim.ClassJob, Job: j.wj.ID, Kind: evArrival,
		})
	}
	q.Push(eventsim.Event{Time: 0, Class: eventsim.ClassCluster, Kind: evAgent})
	q.Push(eventsim.Event{Time: 0, Class: eventsim.ClassCluster, Kind: evSched})

	// The loop is the generic kernel driver on a virtual clock; the
	// live-cluster replay engine drives the identical loop shape with a
	// wall clock (see internal/eventsim.Clock).
	eventsim.Drive(&q, eventsim.Virtual{}, 0, func(e eventsim.Event) bool {
		if e.Time > cfg.MaxTime {
			return false
		}
		c.integrateCost(e.Time)
		c.now = e.Time

		switch e.Kind {
		case evArrival:
			j := byID[e.Job]
			if j.submitted {
				break // picked up by a coincident cluster round below
			}
			// Ties pop in ascending job-ID order (eventsim ordering),
			// matching submitArrivals' trace order, so the admission
			// stage sees arrivals identically under both paths.
			c.submitJob(j)

		case evAgent:
			// Cluster events pop before job events at equal timestamps,
			// so a job whose submit time coincides exactly with this
			// round would otherwise miss it and wait a whole interval
			// (the tick engine admits arrivals first); admit due
			// arrivals here, leaving their evArrival a no-op.
			c.submitArrivals()
			c.advanceAll()
			c.agentTick()
			c.refreshPredictions(&q)
			q.Push(eventsim.Event{
				Time: c.now + AgentInterval, Class: eventsim.ClassCluster, Kind: evAgent,
			})

		case evProvision:
			if c.provisioning > 0 && c.now >= c.provisionAt {
				c.activeNodes += c.provisioning
				c.provisioning = 0
			}

		case evSched:
			c.submitArrivals()
			c.advanceAll()
			if cfg.Autoscale != nil {
				c.autoscaleTick()
				if c.provisioning > 0 {
					q.Push(eventsim.Event{
						Time: c.provisionAt, Class: eventsim.ClassCluster, Kind: evProvision,
					})
				}
			}
			c.scheduleTick()
			c.refreshPredictions(&q)
			q.Push(eventsim.Event{
				Time: c.now + SchedInterval, Class: eventsim.ClassCluster, Kind: evSched,
			})

		case evRestart:
			// Semantically redundant: Job.advanceTo already excludes the
			// pause window from every segment, and the rate is unchanged
			// across it (progress was frozen), so this re-anchor changes
			// nothing. It is kept as an explicit event so restart-delay
			// expiries appear on the timeline like every other state
			// boundary; the cost is one heap entry per re-allocation.
			byID[e.Job].advanceTo(c.now, cfg.Tick)

		case evMilestone:
			j := byID[e.Job]
			if j.done || !j.reach(e, cfg.Tick) {
				break // stale prediction, superseded by a later event
			}
			if j.Finished() {
				c.finishJob(j, c.now)
			} else {
				c.refreshPrediction(&q, j) // decay boundary: phi jumped
			}
		}

		return !c.allDone()
	})

	// Unfinished tail: account running time and cluster cost up to the
	// horizon, as the tick engine does.
	if !c.allDone() && c.now < cfg.MaxTime {
		c.integrateCost(cfg.MaxTime)
		c.now = cfg.MaxTime
		c.advanceAll()
	}
	return c.result()
}

// integrateCost accrues the paid cluster size (active plus provisioning
// nodes) over the interval since the last event.
func (c *Cluster) integrateCost(t float64) {
	if t <= c.lastCost {
		return
	}
	c.nodeSeconds += float64(c.activeNodes+c.provisioning) * (t - c.lastCost)
	c.lastCost = t
}

// advanceAll brings every active job's training state up to c.now.
func (c *Cluster) advanceAll() {
	for _, j := range c.active() {
		j.advanceTo(c.now, c.cfg.Tick)
	}
}

// refreshPrediction re-freezes one job's rate under the cluster's clamp
// rule and its current interference, and predicts its next milestone.
func (c *Cluster) refreshPrediction(q *eventsim.Queue, j *jobState) {
	j.freeze(j.ClusterBatch(), j.slowdown, AgentInterval)
	j.predict(q, c.now, AgentInterval, j.wj.ID, evMilestone)
}

// refreshPredictions re-freezes rates and reschedules milestone events
// for every active job after a cluster event (which may have changed
// allocations, batch sizes, restart delays, or interference), and turns
// freshly charged restart delays into expiry events.
func (c *Cluster) refreshPredictions(q *eventsim.Queue) {
	for _, j := range c.active() {
		c.refreshPrediction(q, j)
		//pollux:floateq-ok identity check against a stored copy of the same value; any difference means a fresh restart event
		if j.RestartUntil > c.now && j.RestartUntil != j.restartEv {
			j.restartEv = j.RestartUntil
			q.Push(eventsim.Event{
				Time: j.RestartUntil, Class: eventsim.ClassJob, Job: j.wj.ID, Kind: evRestart,
			})
		}
	}
}
