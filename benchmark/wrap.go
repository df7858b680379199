package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/ga"
	"repro/internal/runtime"
	"repro/internal/sched"
)

// pass collects what one measured section (the untraced repetitions, or
// the traced ones) observed from outside the program: round latencies,
// scheduler work counts, and the outcome of every checked operation.
type pass struct {
	tr *tracer // nil on the untraced pass

	roundMS []float64 // one scheduling-round latency sample per round
	liveMB  []float64 // the live heap when each round's Schedule returned
	rounds  int

	// Work counts summed from sched.RoundStats (Pollux only).
	cells, calls, dirty, racks int64
	skipped, full              int

	// Host time between layer boundaries of a simulation, summed.
	betweenS, commitS float64
	schedEnd          time.Time // end of the latest Schedule call
	roundEnd          time.Time // latest OnRound callback

	attempted, failed int
	failures          []string
}

// check counts one attempted operation and records why it failed.
func (p *pass) check(ok bool, format string, args ...any) {
	p.attempted++
	if ok {
		return
	}
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// merge adds the operations another pass counted.
func (p *pass) merge(q *pass) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.failures = append(p.failures, q.failures...)
}

// startRep forgets the previous repetition's boundary times, so no
// interval spans two repetitions.
func (p *pass) startRep(rep int) {
	p.schedEnd, p.roundEnd = time.Time{}, time.Time{}
	if p.tr != nil {
		p.tr.rep = rep
	}
}

// timedPolicy is the sched.Policy handed to the program under test. It
// times every Schedule call from outside and checks the returned matrix.
type timedPolicy struct {
	sched.Policy
	pollux *sched.Pollux // the wrapped policy when it is Pollux, else nil
	p      *pass
	// simulated says a simulator or the replay loop calls the policy: the
	// Schedule call is then the round-latency sample and its matrix is
	// checked here. The service harness times and checks runtime.Step.
	simulated bool
}

func newTimedPolicy(inner sched.Policy, p *pass, simulated bool) *timedPolicy {
	pollux, _ := inner.(*sched.Pollux)
	return &timedPolicy{Policy: inner, pollux: pollux, p: p, simulated: simulated}
}

func (t *timedPolicy) Schedule(v *sched.ClusterView) ga.Matrix {
	p := t.p
	start := time.Now()
	switch {
	case !p.roundEnd.IsZero():
		p.betweenS += start.Sub(p.roundEnd).Seconds()
	case !p.schedEnd.IsZero(): // replay has no OnRound hook
		p.betweenS += start.Sub(p.schedEnd).Seconds()
	}
	id := p.tr.begin("sched.schedule")
	m := t.Policy.Schedule(v)
	p.tr.end(id)
	end := time.Now()
	p.schedEnd = end
	p.rounds++
	p.liveMB = append(p.liveMB, liveHeapMB())
	if t.pollux != nil {
		st := t.pollux.LastRoundStats()
		p.cells += st.FitnessCells
		p.calls += st.FitnessCalls
		p.dirty += int64(st.Sub)
		p.racks += int64(st.Racks)
		if st.Skipped {
			p.skipped++
		}
		if st.Full {
			p.full++
		}
	}
	if t.simulated {
		p.roundMS = append(p.roundMS, 1e3*end.Sub(start).Seconds())
		// The simulators drop a bad matrix silently; count it here.
		p.checkMatrix(v.Capacity, m, len(v.Jobs), t.pollux != nil)
	}
	return m
}

// checkMatrix counts one scheduling result as an attempted operation: it
// must have a row per job, fit every node's capacity and, for Pollux,
// keep at most one distributed job per node.
func (p *pass) checkMatrix(capacity []int, m ga.Matrix, jobs int, avoidance bool) {
	if len(m) != jobs {
		p.check(false, "round %d: %d rows for %d jobs", p.rounds, len(m), jobs)
		return
	}
	if err := runtime.CheckCapacity(capacity, m); err != nil {
		p.check(false, "round %d: %v", p.rounds, err)
		return
	}
	p.check(!avoidance || ga.Feasible(m, capacity, true), "round %d: interference constraint violated", p.rounds)
}

// onRound is the sim.Config.OnRound hook: the commit of the round just
// scheduled has finished.
func (p *pass) onRound(float64) {
	now := time.Now()
	if !p.schedEnd.IsZero() {
		p.commitS += now.Sub(p.schedEnd).Seconds()
	}
	p.roundEnd = now
}

// timedBackend is the runtime.Backend handed to runtime.Step in the
// service harness: cluster.Service with its two ends timed, keeping the
// view and the committed matrix for the checks that follow the round.
type timedBackend struct {
	svc *cluster.Service
	p   *pass

	view      *sched.ClusterView
	committed ga.Matrix
}

func (b *timedBackend) Round(now float64) *sched.ClusterView {
	id := b.p.tr.begin("cluster.service_round")
	b.view = b.svc.Round(now)
	b.p.tr.end(id)
	return b.view
}

func (b *timedBackend) Commit(m ga.Matrix, changed []bool) error {
	id := b.p.tr.begin("cluster.service_commit")
	err := b.svc.Commit(m, changed)
	b.p.tr.end(id)
	b.committed = m
	return err
}
