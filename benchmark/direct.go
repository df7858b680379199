package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/agent"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/ga"
	"repro/internal/models"
	rounds "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/workload"
)

// perCall times batches of n calls of f and returns the median batch's
// seconds per call; prepare, if not nil, runs untimed before each batch.
func perCall(batches, n int, prepare func(), f func()) float64 {
	per := make([]float64, batches)
	for b := range per {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = time.Since(start).Seconds() / float64(n)
	}
	return median(per)
}

// sink keeps the compiler from dropping a measured call's result.
var sink float64

// calibrate times a fixed loop of logarithms, exponentials and small
// allocations: the unit for comparing times between machines.
func calibrate() float64 {
	return perCall(3, 1, nil, func() {
		x := 1.0
		var keep [][]float64
		for i := 0; i < 2_000_000; i++ {
			x += math.Exp(math.Log(x+1) * 0.5)
			if i%64 == 0 {
				keep = append(keep[:len(keep)%256], make([]float64, 32))
			}
		}
		sink += x + float64(len(keep))
	})
}

// truthSamples profiles a zoo model the way an agent would, without
// noise: iteration times of the ground truth over GPU counts and batches.
func truthSamples(spec *models.Spec, n int) ([]core.Sample, core.Exploration) {
	var samples []core.Sample
	var explored core.Exploration
	for i := 0; len(samples) < n; i++ {
		gpus := 1 << (i % 5) // 1..16
		pl := core.Placement{GPUs: gpus, Nodes: (gpus + gpusInNode - 1) / gpusInNode}
		batch := spec.M0 * (1 + i/5)
		if batch > gpus*spec.MaxBatchPerGPU {
			batch = gpus * spec.MaxBatchPerGPU
		}
		if batch < spec.M0 {
			continue
		}
		explored.Observe(pl)
		samples = append(samples, core.Sample{Placement: pl, Batch: batch, TIter: spec.Truth.TIter(pl, float64(batch))})
	}
	return samples, explored
}

// profiledAgents builds one agent per trace job holding a noiseless
// profile of its model, each needing a full refit.
func profiledAgents(trace workload.Trace) []*agent.Agent {
	agents := make([]*agent.Agent, 0, len(trace.Jobs))
	for _, j := range trace.Jobs {
		spec := models.ByName(j.Model)
		a := agent.New(spec.M0, spec.Eta0, spec.MaxBatchPerGPU, spec.MaxBatchGlobal)
		samples, _ := truthSamples(spec, 12)
		for _, s := range samples {
			a.RecordSampleN(s.Placement, s.Batch, s.TIter, 30)
		}
		a.SetPhi(spec.Phi(0.5))
		agents = append(agents, a)
	}
	return agents
}

func directSimPollux(inst instance, cfg runConfig, p *pass, out metricSet) error {
	s := inst.(*simInstance)
	spec := models.Zoo()[0]
	samples, explored := truthSamples(spec, 24)
	var fit core.Params
	out.set("core.fit_ms", "ms", 1e3*perCall(5, 1, nil, func() { fit = core.Fit(samples, core.Params{}, explored) }))
	out.set("core.fit_warm_ms", "ms", 1e3*perCall(5, 4, nil, func() { sink += core.FitWarm(samples, fit, explored).AlphaGrad }))
	model := spec.GoodputModel(0.5)
	k := 0
	out.set("core.speedup_ns", "ns", 1e9*perCall(5, 2000, nil, func() {
		k++
		gpus := 1 + k%16
		sink += model.Speedup(core.Placement{GPUs: gpus, Nodes: (gpus + gpusInNode - 1) / gpusInNode})
	}))

	var agents []*agent.Agent
	out.set("agent.refit_all_ms", "ms", 1e3*perCall(5, 1,
		func() { agents = profiledAgents(s.trace) },
		func() { agent.RefitAll(agents, runtime.GOMAXPROCS(0)) }))
	out.set("agent.tune_batch_us", "us", 1e6*perCall(5, 500, nil, func() {
		k++
		b, _ := agents[k%len(agents)].TuneBatch(core.Placement{GPUs: 4, Nodes: 1})
		sink += float64(b)
	}))
	directGenerate(s, out, 20)
	return nil
}

func directGenerate(s *simInstance, out metricSet, n int) {
	opts := s.shape.opts
	opts.GPUsPerNode = gpusInNode
	rng := rand.New(rand.NewSource(s.seed))
	out.set("workload.generate_ms", "ms", 1e3*perCall(5, n, nil, func() {
		sink += float64(len(workload.Generate(rng, opts).Jobs))
	}))
}

func directSimTiresias(inst instance, cfg runConfig, p *pass, out metricSet) error {
	s := inst.(*simInstance)
	const events = 4096
	rng := rand.New(rand.NewSource(s.seed))
	times := make([]float64, events)
	for i := range times {
		times[i] = 86400 * rng.Float64()
	}
	out.set("eventsim.push_pop_ns", "ns", 1e9/events*perCall(9, 1, nil, func() {
		var q eventsim.Queue
		for i, t := range times {
			q.Push(eventsim.Event{Time: t, Class: eventsim.ClassJob, Job: i})
		}
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			sink += e.Time
		}
	}))
	directGenerate(s, out, 2)
	return nil
}

// directSvcFull times the GA's operators at the full32 shape under a
// fitness of constant cost, so only the GA's own work is measured.
func directSvcFull(inst instance, cfg runConfig, p *pass, out metricSet) error {
	s := inst.(*svcInstance)
	jobs, nodes := s.shape.jobs, s.shape.nodes
	rng := rand.New(rand.NewSource(cfg.seed))
	prob := ga.Problem{
		Capacity: s.capacity, Jobs: jobs, InterferenceAvoidance: true,
		Fitness: func(m ga.Matrix) float64 {
			total := 0
			for _, row := range m {
				total += row[0]
			}
			return float64(total)
		},
	}
	g := ga.New(prob, ga.Options{Population: s.shape.opts.Population}, rng, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const steps = 30
	out.set("ga.step_us", "us", 1e6*perCall(5, steps, nil, g.Step))
	runtime.ReadMemStats(&after)
	out.set("ga.step_allocs", "count", float64(after.Mallocs-before.Mallocs)/(5*steps))

	// Over-subscribed matrices: every job asks for GPUs on three nodes.
	const batch = 64
	ms := make([]ga.Matrix, batch)
	fill := func() {
		for i := range ms {
			ms[i] = ga.NewMatrix(jobs, nodes)
			for j := range ms[i] {
				for k := 0; k < 3; k++ {
					ms[i][j][rng.Intn(nodes)] = 1 + rng.Intn(gpusInNode)
				}
			}
		}
	}
	i := 0
	out.set("ga.repair_capacity_us", "us", 1e6*perCall(5, batch, func() { fill(); i = 0 }, func() {
		ga.RepairCapacity(ms[i], s.capacity, rng)
		i++
	}))
	out.set("ga.repair_interference_us", "us", 1e6*perCall(5, batch, func() { fill(); i = 0 }, func() {
		ga.RepairInterference(ms[i], rng)
		i++
	}))
	return nil
}

// directSvcInc reruns the incremental harness at half and twice the
// cluster (jobs scale along) to place the round's growth, and takes the
// half-size service through a checkpoint round trip. The round trip runs
// at half size because Service.RestoreSnapshot binds placements one by
// one, each bind scanning every placement on every node: 12 s there,
// 93 s at the workload's own size.
func directSvcInc(inst instance, cfg runConfig, p *pass, out metricSet) error {
	s := inst.(*svcInstance)
	scaled := func(factor float64) (*svcInstance, float64, error) {
		shape := s.shape
		shape.nodes = int(float64(shape.nodes) * factor)
		shape.jobs = int(float64(shape.jobs) * factor)
		shape.warmup, shape.block = 3, 30
		runtime.GC()
		in, err := setupSvc(shape)(cfg.seed)
		if err != nil {
			return nil, 0, err
		}
		sp := &pass{}
		in.rep(sp, 0)
		p.merge(sp)
		return in.(*svcInstance), percentile(sp.roundMS, 50), nil
	}
	_, double, err := scaled(2)
	if err != nil {
		return err
	}
	small, half, err := scaled(0.5)
	if err != nil {
		return err
	}
	out.set("runtime.step_ms_n128", "ms", half)
	out.set("runtime.step_ms_n512", "ms", double)
	out.set("runtime.step_scaling_exp", "x", math.Log(double/half)/math.Log(4))
	return checkpointRoundTrip(small, cfg, p, out)
}

// svcCheckpoint is the body pollux-sched writes: both halves of the
// scheduler's state.
type svcCheckpoint struct {
	Service *cluster.ServiceSnapshot
	Policy  *sched.PolluxSnapshot
}

// checkpointRoundTrip snapshots the service and its policy, writes, reads
// and restores them into a fresh pair, then runs the same round on both:
// the two committed matrices must be identical.
func checkpointRoundTrip(s *svcInstance, cfg runConfig, p *pass, out metricSet) error {
	const kind, version = "benchmark-service", 1
	path := filepath.Join(cfg.scratch, cfg.workload+".ckpt")
	defer os.Remove(path)

	start := time.Now()
	body := svcCheckpoint{Service: s.svc.Snapshot(), Policy: s.pollux.Snapshot()}
	out.set("checkpoint.snapshot_ms", "ms", 1e3*time.Since(start).Seconds())

	start = time.Now()
	if err := checkpoint.Write(path, kind, version, &body); err != nil {
		return err
	}
	out.set("checkpoint.write_ms", "ms", 1e3*time.Since(start).Seconds())
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	out.set("checkpoint.bytes", "count", float64(info.Size()))

	start = time.Now()
	var loaded svcCheckpoint
	if _, err := checkpoint.Read(path, kind, version, &loaded); err != nil {
		return err
	}
	out.set("checkpoint.read_ms", "ms", 1e3*time.Since(start).Seconds())

	start = time.Now()
	svc := cluster.NewService(cluster.NewState(s.capacity))
	pollux := sched.NewPollux(s.shape.opts, cfg.seed)
	if err := svc.RestoreSnapshot(loaded.Service); err != nil {
		return err
	}
	if err := pollux.Restore(loaded.Policy); err != nil {
		return err
	}
	out.set("checkpoint.restore_ms", "ms", 1e3*time.Since(start).Seconds())

	quiet := &pass{}
	original := &timedBackend{svc: s.svc, p: quiet}
	restored := &timedBackend{svc: svc, p: quiet}
	_, err1 := rounds.Step(original, nil, s.pollux, s.now)
	_, err2 := rounds.Step(restored, nil, pollux, s.now)
	p.check(err1 == nil && err2 == nil && original.committed.Equal(restored.committed),
		"checkpoint round trip: restored service diverged (%v, %v)", err1, err2)
	return nil
}

// directReplay puts the socket back: one replay of the same trace with
// the trainers behind a loopback net/rpc connection, which must produce
// the in-process result bit for bit, then single calls of the two RPCs
// the trainers make, closed-loop over one connection.
func directReplay(inst instance, cfg runConfig, p *pass, out metricSet) error {
	s := inst.(*simInstance)
	quiet := &pass{}
	local := s.timedRun(quiet, 0, "", false)
	remote := s.timedRun(quiet, 0, "", true)
	p.merge(quiet)
	p.check(remote.digest == local.digest, "replay over RPC differs from the in-process replay")
	out.set("cluster.replay_rpc_s", "s", remote.wallS)

	capacity := make([]int, s.shape.nodes)
	for n := range capacity {
		capacity[n] = gpusInNode
	}
	svc := cluster.NewService(cluster.NewState(capacity))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		cluster.Serve(svc, ln) //nolint:errcheck // returns when the listener closes
	}()
	defer func() {
		ln.Close()
		<-served
	}()
	client, err := cluster.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer client.Close()

	calls := 5000
	if cfg.short {
		calls = 100
	}
	spec := models.Zoo()[0]
	report := cluster.Report{M0: spec.M0, MaxBatchPerGPU: spec.MaxBatchPerGPU, MaxBatchGlobal: spec.MaxBatchGlobal, GPUCap: 8, UserGPUs: 2}
	copy(report.Params[:], spec.Truth.Vector())
	refused := 0
	timed := func(call func(job string) error) float64 {
		us := make([]float64, calls)
		for i := range us {
			job := fmt.Sprintf("job-%d", i%64)
			start := time.Now()
			err := call(job)
			us[i] = 1e6 * time.Since(start).Seconds()
			p.check(err == nil, "rpc probe: %v", err)
			if err != nil {
				refused++
			}
		}
		return percentile(us, 50)
	}
	out.set("cluster.rpc_submit_us", "us", timed(func(job string) error {
		report.Job = job
		report.GPUTime += 30
		return client.SubmitReport(report)
	}))
	out.set("cluster.rpc_getalloc_us", "us", timed(func(job string) error {
		a, err := client.GetAllocation(job)
		sink += float64(len(a.Row))
		return err
	}))
	out.set("cluster.rpc_errors", "count", float64(refused))
	return nil
}
