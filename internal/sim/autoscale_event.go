package sim

import (
	"math/rand"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/models"
	"repro/internal/sched"
)

// Event kinds for the single-job autoscaling engine, in intra-instant
// execution order (matching the fixed-step loop's per-tick sequence:
// provisioning completion, agent profiling, scaling decision, sampling,
// then training).
const (
	asProvision = iota // requested nodes join the cluster
	asAgent            // agent profiling/tuning round
	asDecision         // autoscaler decision round
	asSample           // time-series sample for the Fig. 10 plot
	asMilestone        // predicted decay crossing or training completion
)

// runAutoscaleEvent is the discrete-event twin of runAutoscaleTick: one
// training job whose node count the autoscaler adjusts, with progress
// advanced in closed form between events.
func runAutoscaleEvent(spec *models.Spec, scaler sched.Autoscaler, cfg AutoscaleConfig) AutoscaleResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ag := agent.New(spec.M0, spec.Eta0, spec.MaxBatchPerGPU, spec.MaxBatchGlobal)

	var res AutoscaleResult
	nodesReady := cfg.MinNodes
	nodesPaid := cfg.MinNodes
	provisioning := 0
	provisionAt := -1.0 // when pending nodes become ready

	batch := spec.M0
	progress := 0.0
	restartUntil := 0.0
	total := spec.TotalWork()

	placement := func(n int) core.Placement {
		return core.Placement{GPUs: n * cfg.GPUsPerNode, Nodes: n}
	}

	// Frozen training rate, recomputed at every event that can change it.
	var rate struct {
		m     int
		tIter float64
		good  float64
	}
	now := 0.0
	lastT := 0.0    // time training state was last advanced to
	lastCost := 0.0 // time the node-seconds integral was advanced to
	var version uint64
	predTarget := 0.0

	recomputeRate := func() {
		pl := placement(nodesReady)
		m := clampBatch(spec, batch, pl)
		tIter := spec.Truth.TIter(pl, float64(m))
		tput := float64(m) / tIter
		rate.m = m
		rate.tIter = tIter
		rate.good = tput * midpointEfficiency(spec, m, tput, progress, cfg.AgentInterval)
	}

	advanceTo := func(t float64) {
		if t <= lastT {
			return
		}
		start := lastT
		if restartUntil > start {
			start = restartUntil
		}
		if start < t && rate.good > 0 {
			dt := t - start
			progress += rate.good * dt
			n := observationCount(dt, cfg.Tick)
			noisy := rate.tIter * (1 + cfg.NoiseFrac*(rng.Float64()*2-1)/sqrtN(n))
			ag.RecordSampleN(placement(nodesReady), rate.m, noisy, n)
		}
		lastT = t
	}

	var q eventsim.Queue
	schedulePrediction := func() {
		version++
		if rate.good <= 0 {
			return
		}
		target := nextMilestoneTarget(spec, progress)
		start := now
		if restartUntil > start {
			start = restartUntil
		}
		t := start + (target-progress)/rate.good
		if t > now+cfg.AgentInterval {
			return // superseded before firing; the next refresh reschedules
		}
		predTarget = target
		q.Push(eventsim.Event{
			Time:    t,
			Class:   eventsim.ClassJob,
			Kind:    asMilestone,
			Version: version,
		})
	}
	cluster := func(t float64, kind int) eventsim.Event {
		return eventsim.Event{Time: t, Class: eventsim.ClassCluster, Kind: kind}
	}

	q.Push(cluster(0, asAgent))
	q.Push(cluster(0, asDecision))
	q.Push(cluster(0, asSample))

	for {
		e, ok := q.Pop()
		if !ok || e.Time > cfg.MaxTime {
			break
		}
		res.CostNodeSeconds += float64(nodesPaid) * (e.Time - lastCost)
		lastCost = e.Time
		now = e.Time
		advanceTo(now)

		switch e.Kind {
		case asProvision:
			// The readiness guard matters when scale-ups overlap
			// (ProvisionDelay > Interval): a later request pushes
			// provisionAt out, and the earlier event must not promote
			// the combined batch early.
			if provisioning > 0 && now >= provisionAt {
				nodesReady += provisioning
				provisioning = 0
				restartUntil = now + cfg.RestartDelay
				recomputeRate()
				schedulePrediction()
			}

		case asAgent:
			phi := spec.Phi(progress/total) * (1 + cfg.NoiseFrac*(rng.Float64()*2-1))
			ag.SetPhi(phi)
			ag.Refit()
			pl := placement(nodesReady)
			if cfg.AdaptBatchGoodput {
				batch, _ = ag.TuneBatch(pl)
			} else {
				batch = sched.ThroughputOptimalBatch(ag.Report(), pl)
			}
			recomputeRate()
			schedulePrediction()
			q.Push(cluster(now+cfg.AgentInterval, asAgent))

		case asDecision:
			model := ag.Report()
			want := scaler.DesiredNodes(model, cfg.GPUsPerNode)
			if cfg.RespectExploreCap {
				if cap := ag.GPUCap() / cfg.GPUsPerNode; want > cap && cap >= cfg.MinNodes {
					want = cap
				}
			}
			if want < cfg.MinNodes {
				want = cfg.MinNodes
			}
			if want > cfg.MaxNodes {
				want = cfg.MaxNodes
			}
			if want > nodesReady+provisioning {
				add := want - nodesReady - provisioning
				provisioning += add
				nodesPaid += add
				provisionAt = now + cfg.ProvisionDelay
				q.Push(cluster(provisionAt, asProvision))
			} else if want < nodesReady {
				nodesReady = want
				nodesPaid = want + provisioning
				restartUntil = now + cfg.RestartDelay
				recomputeRate()
				schedulePrediction()
			}
			q.Push(cluster(now+cfg.Interval, asDecision))

		case asSample:
			pl := placement(nodesReady)
			eff := core.Efficiency(spec.Phi(progress/total), spec.M0, clampBatch(spec, batch, pl))
			res.Points = append(res.Points, AutoscalePoint{
				Time: now, Nodes: nodesPaid, Batch: batch, Efficiency: eff,
			})
			q.Push(cluster(now+cfg.SamplePeriod, asSample))

		case asMilestone:
			if e.Version != version {
				break
			}
			progress = predTarget
			if progress >= total {
				res.CompletionTime = now
				res.Completed = true
			} else {
				recomputeRate() // phi jumps at the decay boundary
				schedulePrediction()
			}
		}
		if res.Completed {
			break
		}
	}
	if !res.Completed {
		res.CompletionTime = cfg.MaxTime
		if lastCost < cfg.MaxTime {
			res.CostNodeSeconds += float64(nodesPaid) * (cfg.MaxTime - lastCost)
		}
	}
	return res
}
