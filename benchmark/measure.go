package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"
)

// workloadDef is one closed-loop workload: a single goroutine drives the
// program under test, one repetition after the other.
type workloadDef struct {
	name string
	// procs caps GOMAXPROCS (at most nproc). The workloads whose program
	// fans work out to a pool run on two Ps. sim_tiresias_diurnal is one
	// event loop that wakes a second P 9000 times per repetition for
	// two-goroutine refit fan-outs and 200 collections; interleaved runs
	// were equally fast on one P and spread 10% run to run against 19-30%
	// on two, where each wake-up can find the second vCPU parked.
	procs int
	// setups is how many times a run sets the workload up; setup_s is
	// their median and the last set-up is the one measured.
	setups int
	// sameReps says every repetition recomputes the same result, so all
	// digests of a run must agree; otherwise state carries over between
	// repetitions and only the traced and untraced passes are compared.
	sameReps bool
	setup    func(seed int64) (instance, error)
	// direct times the layers' public functions at this workload's
	// shapes; it runs after the traced pass only.
	direct func(inst instance, cfg runConfig, p *pass, out metricSet) error
}

func workloads(short bool) []*workloadDef {
	std, paper, day, f32, i256 := stdShape, paperShape, diurnal, full32, inc256
	if short {
		std, paper, day, f32, i256 = stdShapeS, stdShapeS, diurnalS, full32S, inc256S
	}
	return []*workloadDef{
		{name: "sim_pollux_std", procs: 2, setups: 5, sameReps: true,
			setup: setupSim(std, polluxPolicy(short), false, 0.5), direct: directSimPollux},
		{name: "sim_tiresias_diurnal", procs: 1, setups: 5, sameReps: true,
			setup: setupSim(day, tiresiasPolicy, false, 12), direct: directSimTiresias},
		{name: "svc_round_full32", procs: 2, setups: 3,
			setup: setupSvc(f32), direct: directSvcFull},
		{name: "svc_round_inc256", procs: 2, setups: 3,
			setup: setupSvc(i256), direct: directSvcInc},
		{name: "replay_local", procs: 2, setups: 5, sameReps: true,
			setup: setupSim(paper, tiresiasPolicy, true, 0), direct: directReplay},
	}
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	scratch  string // directory for the span file, the CPU profile and the checkpoint
	traceOut string
}

// section is one measured pass over a set-up instance.
type section struct {
	p       *pass
	reps    []repResult
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNS uint64
	peakRSS float64 // the process's maximum resident set when the pass ended, MB
}

func (s *section) repWalls() []float64 {
	w := make([]float64, len(s.reps))
	for i, r := range s.reps {
		w[i] = r.wallS
	}
	return w
}

// measure repeats the workload for at least the given seconds, at least
// twice, and until the round latency has enough samples for its 90th
// percentile; with reps > 0 it runs exactly that many repetitions.
func measure(def *workloadDef, inst instance, tr *tracer, cfg runConfig, reps int) *section {
	s := &section{p: &pass{tr: tr}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for rep := 0; ; rep++ {
		if reps > 0 {
			if rep >= reps {
				break
			}
		} else if rep >= 2 && time.Since(start).Seconds() >= cfg.seconds &&
			(cfg.short || tailPercentile(len(s.p.roundMS)) >= 90) {
			break
		}
		r := inst.rep(s.p, rep)
		if rep > 0 && def.sameReps {
			s.p.check(r.digest == s.reps[0].digest, "rep %d: result differs from rep 0", rep)
		}
		s.reps = append(s.reps, r)
	}
	runtime.ReadMemStats(&after)
	s.mallocs = after.Mallocs - before.Mallocs
	s.bytes = after.TotalAlloc - before.TotalAlloc
	s.gcs = after.NumGC - before.NumGC
	s.pauseNS = after.PauseTotalNs - before.PauseTotalNs
	s.peakRSS = peakRSSMB()
	return s
}

// outcome is the result line of one run.
type outcome struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	failures  []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

func (m metricSet) set(name, unit string, v float64) { m[name] = metricValue{Value: v, Unit: unit} }

// runWorkload sets the workload up, measures it untraced and, with
// cfg.trace, once more with spans and a CPU profile. The untraced pass
// yields the end-to-end metrics, the traced one the per-layer metrics.
func runWorkload(def *workloadDef, cfg runConfig) (*outcome, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), def.procs))

	var inst instance
	var setupS []float64
	for k := 0; k < def.setups; k++ {
		inst = nil
		runtime.GC() // the previous set-up's memory must not stack under this one
		start := time.Now()
		var err error
		if inst, err = def.setup(cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	plain := measure(def, inst, nil, cfg, 0)
	out := &outcome{Metrics: metricSet{}}
	if !cfg.trace {
		endToEnd(out.Metrics, setupS, plain)
		out.count(plain.p)
		return out, nil
	}

	inst = nil
	traced, fresh, err := tracedPass(def, cfg, len(plain.reps))
	if err != nil {
		return nil, err
	}
	// Tracing must not change what the program computes.
	for i, r := range traced.reps {
		traced.p.check(r.digest == plain.reps[i].digest, "traced rep %d differs from the untraced one", i)
	}
	if err := perLayer(out.Metrics, cfg, plain, traced, fresh); err != nil {
		return nil, err
	}
	if err := def.direct(fresh, cfg, traced.p, out.Metrics); err != nil {
		return nil, err
	}
	for _, name := range perLayerNames {
		if _, ok := out.Metrics[name.name]; !ok {
			out.Metrics.set(name.name, name.unit, 0) // not measured on this workload
		}
	}
	plain.p.merge(traced.p)
	out.count(plain.p)
	return out, nil
}

// count copies the pass's tally of checked operations into the result.
func (o *outcome) count(p *pass) {
	o.Attempted, o.Failed, o.failures = p.attempted, p.failed, p.failures
	o.Correct = p.failed == 0
}

// endToEnd fills the metrics a user of the system sees.
func endToEnd(out metricSet, setupS []float64, s *section) {
	rounds := float64(s.p.rounds)
	out.set("setup_s", "s", median(setupS))
	out.set("wall_s", "s", median(s.repWalls()))
	out.set("round_p50_ms", "ms", percentile(s.p.roundMS, 50))
	out.set("round_p90_ms", "ms", percentile(s.p.roundMS, 90))
	out.set("allocs_per_round", "count", ratio(float64(s.mallocs), rounds))
	out.set("mb_per_round", "MB", ratio(float64(s.bytes)/1e6, rounds))
	out.set("live_heap_mb", "MB", percentile(s.p.liveMB, 90))
}

var liveHeap = []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeapMB is the heap the collector's latest cycle found reachable. It
// leaves out the garbage since, whose amount is the collector's timing.
func liveHeapMB() float64 {
	rtmetrics.Read(liveHeap)
	return float64(liveHeap[0].Value.Uint64()) / 1e6
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
