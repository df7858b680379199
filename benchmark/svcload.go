package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/sched"
)

// svcShape sizes the scheduler-service harness: a cluster.Service holding
// a steady population of live jobs, scheduled by Pollux through
// runtime.Step once per simulated minute.
type svcShape struct {
	nodes, jobs int
	opts        sched.PolluxOptions
	warmup      int // rounds run in set-up after the cold one
	block       int // rounds per repetition
}

var (
	// full32 runs the default flat, full re-optimization at the
	// full-scale preset's GA budget.
	full32  = svcShape{nodes: 32, jobs: 96, opts: sched.PolluxOptions{Population: 50, Generations: 30}, warmup: 10, block: 25}
	full32S = svcShape{nodes: 4, jobs: 8, opts: sched.PolluxOptions{Population: 10, Generations: 5}, warmup: 2, block: 4}
	// inc256 runs the mega preset's incremental, rack-hierarchical rounds
	// over a backlog five times the cluster's GPUs.
	inc256  = svcShape{nodes: 256, jobs: 5120, opts: megaOptions, warmup: 10, block: 50}
	inc256S = svcShape{nodes: 32, jobs: 160, opts: megaOptions, warmup: 2, block: 4}

	megaOptions = sched.PolluxOptions{Population: 20, Generations: 10, Incremental: true, FullEvery: -1, RackSize: 16}
)

// svcInstance is one live service with its job population.
type svcInstance struct {
	shape    svcShape
	rng      *rand.Rand
	zoo      []*models.Spec
	capacity []int
	svc      *cluster.Service
	pollux   *sched.Pollux
	live     []cluster.Report // latest report of every unfinished job
	serial   int              // jobs registered so far
	now      float64

	// The wrappers handed to runtime.Step, bound to the current pass.
	backend *timedBackend
	policy  *timedPolicy
	reports int // reports submitted during the current pass
	// speedupSum and speedupN average the committed allocations' SPEEDUP
	// over live jobs on the rounds that sample it.
	speedupSum float64
	speedupN   int
}

func setupSvc(shape svcShape) func(seed int64) (instance, error) {
	return func(seed int64) (instance, error) {
		s := &svcInstance{
			shape:    shape,
			rng:      rand.New(rand.NewSource(seed)),
			zoo:      models.Zoo(),
			capacity: make([]int, shape.nodes),
			pollux:   sched.NewPollux(shape.opts, seed),
		}
		for n := range s.capacity {
			s.capacity[n] = gpusInNode
		}
		s.svc = cluster.NewService(cluster.NewState(s.capacity))
		for i := 0; i < shape.jobs; i++ {
			r := s.newJob()
			if err := s.svc.SubmitReport(r, nil); err != nil {
				return nil, err
			}
			s.live = append(s.live, r)
		}
		// The cold round places the whole population from nothing; the
		// warm-up rounds then reach the steady state the repetitions
		// measure.
		p := &pass{}
		s.bind(p)
		for i := 0; i <= shape.warmup; i++ {
			s.round(p, false)
		}
		if p.failed > 0 {
			return nil, fmt.Errorf("set-up rounds failed: %v", p.failures)
		}
		return s, nil
	}
}

// newJob draws one job's report: the zoo cycles so every population has
// the same model mix, and the seed places the job in its training run.
func (s *svcInstance) newJob() cluster.Report {
	spec := s.zoo[s.serial%len(s.zoo)]
	model := spec.GoodputModel(0.1 + 0.8*s.rng.Float64())
	gpuCap := 4 << s.rng.Intn(4)
	if total := s.shape.nodes * gpusInNode; gpuCap > total {
		gpuCap = total
	}
	userGPUs := 1 + s.rng.Intn(4)
	r := cluster.Report{
		Job:            fmt.Sprintf("job-%06d", s.serial),
		Phi:            model.Phi,
		M0:             spec.M0,
		MaxBatchPerGPU: spec.MaxBatchPerGPU,
		MaxBatchGlobal: spec.MaxBatchGlobal,
		GPUCap:         gpuCap,
		GPUTime:        5 * 3600 * s.rng.Float64(),
		Submit:         s.now,
		UserGPUs:       userGPUs,
		UserBatch:      spec.M0 * userGPUs,
		RemainingIters: 1e4,
	}
	copy(r.Params[:], spec.Truth.Vector())
	s.serial++
	return r
}

// bind points the timing wrappers at a pass.
func (s *svcInstance) bind(p *pass) {
	s.backend = &timedBackend{svc: s.svc, p: p}
	s.policy = newTimedPolicy(s.pollux, p, false)
	s.reports = 0
	s.speedupSum, s.speedupN = 0, 0
}

// round is one simulated minute of the service: a refit moves one job's
// noise scale, one job finishes, every live job reports its attained
// service, one job arrives, and the scheduler runs. With sample set it
// also scores the committed allocation.
func (s *svcInstance) round(p *pass, sample bool) (wallS float64, sum uint64) {
	start := time.Now()
	roundID := p.tr.begin("svc.round")
	submitID := p.tr.begin("cluster.submit_reports")
	s.live[s.rng.Intn(len(s.live))].Phi *= 1.25
	done := s.rng.Intn(len(s.live))
	s.live[done].Done = true
	for i := range s.live {
		r := &s.live[i]
		r.GPUTime += 60 * float64(r.UserGPUs)
		p.check(s.svc.SubmitReport(*r, nil) == nil, "report %s refused", r.Job)
	}
	s.live[done] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
	arrival := s.newJob()
	p.check(s.svc.SubmitReport(arrival, nil) == nil, "report %s refused", arrival.Job)
	s.live = append(s.live, arrival)
	p.tr.end(submitID)
	submitted := time.Now()

	stepID := p.tr.begin("runtime.step")
	n, err := runtime.Step(s.backend, nil, s.policy, s.now)
	p.tr.end(stepID)
	p.tr.end(roundID)
	end := time.Now()

	s.reports += len(s.live) + 1
	p.roundMS = append(p.roundMS, 1e3*end.Sub(submitted).Seconds())
	s.now += 60

	// Checks run outside the timed round.
	m := s.backend.committed
	if err != nil || n != len(s.live) {
		p.check(false, "round at t=%.0f: scheduled %d of %d jobs: %v", s.now, n, len(s.live), err)
		return end.Sub(start).Seconds(), 0
	}
	p.checkMatrix(s.capacity, m, len(s.live), true)
	d := newDigest()
	for j, row := range m {
		for node, g := range row {
			if g != 0 {
				d.u64(uint64(j)<<32 | uint64(node)<<8 | uint64(g))
			}
		}
	}
	if sample {
		for j, row := range m {
			s.speedupN++
			if pl := sched.PlacementOf(row); pl.GPUs > 0 {
				s.speedupSum += s.backend.view.Jobs[j].Model.Speedup(pl)
			}
		}
	}
	return end.Sub(start).Seconds(), d.h
}

// rep is one block of rounds; its wall time is the rounds' own (reports
// and Step), without the checks between them.
func (s *svcInstance) rep(p *pass, rep int) repResult {
	p.startRep(rep)
	if s.backend.p != p {
		s.bind(p)
	}
	d := newDigest()
	wall := 0.0
	for i := 0; i < s.shape.block; i++ {
		w, sum := s.round(p, p.tr != nil && i%10 == 0)
		wall += w
		d.u64(sum)
	}
	return repResult{wallS: wall, digest: d.h}
}
