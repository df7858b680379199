package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// traceShape is a cluster and the options of the trace it runs.
type traceShape struct {
	nodes int
	opts  workload.Options
}

var (
	// stdShape is the standard trace of the repo's exhibits on the paper's
	// 16x4 testbed; its tail is one ImageNet job refitting alone.
	stdShape  = traceShape{nodes: 16, opts: workload.Options{Jobs: 40, Hours: 2, MaxGPUs: 64}}
	stdShapeS = traceShape{nodes: 4, opts: workload.Options{Jobs: 6, Hours: 0.25, MaxGPUs: 16}}
	// paperShape is the paper's primary workload, 160 jobs over eight hours.
	paperShape = traceShape{nodes: 16, opts: workload.Options{Jobs: 160, Hours: 8, MaxGPUs: 64}}
	diurnal    = traceShape{nodes: 64, opts: workload.Options{Jobs: 1920, Hours: 24, Poisson: true, MaxGPUs: 64}}
	diurnalS   = traceShape{nodes: 8, opts: workload.Options{Jobs: 40, Hours: 2, Poisson: true, MaxGPUs: 16}}
	gpusInNode = 4
)

// baseTraceSeed fixes the job mix of every trace. Which models a trace
// draws decides its cost (one ImageNet job alone multiplies the run time
// of the 40-job trace by five), so traces drawn from different seeds are
// different workloads, not repetitions of one. The run's seed moves every
// arrival by up to half a minute and drives the profiling noise and the
// policy's own randomness.
const baseTraceSeed = 1

func seededTrace(shape traceShape, seed int64) workload.Trace {
	opts := shape.opts
	opts.GPUsPerNode = gpusInNode
	tr := workload.Generate(rand.New(rand.NewSource(baseTraceSeed)), opts)
	rng := rand.New(rand.NewSource(seed))
	for i := range tr.Jobs {
		s := tr.Jobs[i].Submit + 60*(rng.Float64()-0.5)
		if s < 0 {
			s = 0
		}
		tr.Jobs[i].Submit = s
	}
	sort.SliceStable(tr.Jobs, func(a, b int) bool { return tr.Jobs[a].Submit < tr.Jobs[b].Submit })
	return tr
}

// repResult is what one repetition produced.
type repResult struct {
	wallS  float64
	digest uint64
	simS   float64 // simulated seconds covered (0 for the service harness)
	avgJCT float64 // simulated seconds (0 for the service harness)
}

// instance is one set-up of a workload; rep runs one repetition, counting
// its checked operations in p.
type instance interface {
	rep(p *pass, rep int) repResult
}

// simInstance repeats one whole trace-driven simulation, on the event
// engine or through the replay testbed with its in-process transport.
type simInstance struct {
	trace     workload.Trace
	shape     traceShape
	seed      int64
	newPolicy func(seed int64) sched.Policy
	replay    bool
}

func polluxPolicy(short bool) func(int64) sched.Policy {
	opts := sched.PolluxOptions{Population: 50, Generations: 30}
	if short {
		opts = sched.PolluxOptions{Population: 10, Generations: 5}
	}
	return func(seed int64) sched.Policy { return sched.NewPollux(opts, seed) }
}

func tiresiasPolicy(int64) sched.Policy { return sched.NewTiresias() }

// setupSim builds the seeded trace and warms up on it: a run capped at
// warmHours simulated hours (0 = the whole trace) pages in the code and
// grows the heap before the first measured repetition.
func setupSim(shape traceShape, newPolicy func(int64) sched.Policy, replay bool, warmHours float64) func(seed int64) (instance, error) {
	return func(seed int64) (instance, error) {
		s := &simInstance{trace: seededTrace(shape, seed), shape: shape, seed: seed, newPolicy: newPolicy, replay: replay}
		if _, _, err := s.run(&pass{}, 3600*warmHours, false); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// run simulates the trace up to maxTime (0 = to completion) and returns
// the summary and per-job records. overRPC puts the replay's trainers
// behind a loopback net/rpc connection.
func (s *simInstance) run(p *pass, maxTime float64, overRPC bool) (metrics.Summary, []metrics.JobRecord, error) {
	policy := newTimedPolicy(s.newPolicy(s.seed), p, true)
	if s.replay {
		res, err := cluster.Replay(s.trace, policy, cluster.ReplayConfig{
			Nodes: s.shape.nodes, GPUsPerNode: gpusInNode, Seed: s.seed,
			UseTunedConfig: true, OverRPC: overRPC, MaxTime: maxTime,
		})
		return res.Summary, res.Records, err
	}
	res := sim.NewCluster(s.trace, policy, sim.Config{
		Nodes: s.shape.nodes, GPUsPerNode: gpusInNode, Seed: s.seed,
		UseTunedConfig: true, MaxTime: maxTime, OnRound: p.onRound,
	}).Run()
	return res.Summary, res.Records, nil
}

func (s *simInstance) rep(p *pass, rep int) repResult {
	name := "sim.run"
	if s.replay {
		name = "cluster.replay"
	}
	return s.timedRun(p, rep, name, false)
}

// timedRun is one whole run of the trace under a span of the given name,
// with every job and the run's result checked.
func (s *simInstance) timedRun(p *pass, rep int, name string, overRPC bool) repResult {
	p.startRep(rep)
	start := time.Now()
	id := p.tr.begin(name)
	sum, records, err := s.run(p, 0, overRPC)
	p.tr.end(id)
	wall := time.Since(start).Seconds()

	p.check(err == nil, "rep %d: %v", rep, err)
	d := newDigest()
	for i, r := range records {
		p.check(r.Finish > 0, "rep %d: job %d did not complete", rep, i)
		d.f64(r.Submit)
		d.f64(r.Finish)
	}
	d.f64(sum.AvgJCT)
	d.f64(sum.P99JCT)
	d.f64(sum.Makespan)
	return repResult{wallS: wall, digest: d.h, simS: sum.Makespan, avgJCT: sum.AvgJCT}
}
