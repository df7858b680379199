package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// layerMetric names one per-layer metric; the prefix is the package it
// measures. BENCHMARK.json lists the same names in the same order.
type layerMetric struct {
	name, unit string
	higher     bool // better when higher
}

// How each metric is taken: S = a span recorded by a wrapper in this
// package, C = a count, D = direct timed calls of the layer's public
// functions, P = the share of CPU-profile samples under the layer's entry
// points. A traced run prints every name; 0 marks a metric that is not
// measured on that workload.
var perLayerNames = []layerMetric{
	{"sched.schedule_busy_s", "s", false},             // S
	{"sched.schedule_p50_ms", "ms", false},            // S
	{"sched.schedule_p90_ms", "ms", false},            // S
	{"sched.ns_per_cell", "ns", false},                // S/C
	{"sched.fitness_cells_per_round", "count", false}, // C
	{"sched.fitness_calls_per_round", "count", false}, // C
	{"sched.dirty_jobs_per_round", "count", false},    // C
	{"sched.racks_per_round", "count", false},         // C
	{"sched.skipped_round_ratio", "ratio", true},      // C
	{"sched.full_round_ratio", "ratio", false},        // C
	{"sched.alloc_speedup_mean", "x", true},           // C
	{"ga.step_us", "us", false},                       // D
	{"ga.step_allocs", "count", false},                // D
	{"ga.repair_capacity_us", "us", false},            // D
	{"ga.repair_interference_us", "us", false},        // D
	{"ga.step_cpu_share", "%", false},                 // P
	{"core.fit_ms", "ms", false},                      // D
	{"core.fit_warm_ms", "ms", false},                 // D
	{"core.speedup_ns", "ns", false},                  // D
	{"core.fit_cpu_share", "%", false},                // P
	{"agent.refit_all_ms", "ms", false},               // D
	{"agent.tune_batch_us", "us", false},              // D
	{"agent.refit_cpu_share", "%", false},             // P
	{"sim.between_rounds_s", "s", false},              // S
	{"sim.commit_s", "s", false},                      // S
	{"sim.rounds", "count", false},                    // C
	{"sim.sim_s_per_wall_s", "1/s", true},             // C
	{"sim.avg_jct_s", "s", false},                     // C
	{"sim.round_snapshot_cpu_share", "%", false},      // P
	{"eventsim.push_pop_ns", "ns", false},             // D
	{"eventsim.queue_cpu_share", "%", false},          // P
	{"workload.generate_ms", "ms", false},             // D
	{"cluster.service_round_ms", "ms", false},         // S
	{"cluster.service_commit_ms", "ms", false},        // S
	{"cluster.submit_report_ns", "ns", false},         // S
	{"cluster.reports_per_round", "count", false},     // C
	{"cluster.rpc_submit_us", "us", false},            // D
	{"cluster.rpc_getalloc_us", "us", false},          // D
	{"cluster.rpc_errors", "count", false},            // C
	{"cluster.replay_between_rounds_s", "s", false},   // S
	{"cluster.replay_rpc_s", "s", false},              // D
	{"runtime.step_self_ms", "ms", false},             // S
	{"runtime.step_ms_n128", "ms", false},             // D
	{"runtime.step_ms_n512", "ms", false},             // D
	{"runtime.step_scaling_exp", "x", false},          // D
	{"checkpoint.snapshot_ms", "ms", false},           // D
	{"checkpoint.write_ms", "ms", false},              // D
	{"checkpoint.read_ms", "ms", false},               // D
	{"checkpoint.restore_ms", "ms", false},            // D
	{"checkpoint.bytes", "count", false},              // C
	{"go.gc_cycles_per_round", "count", false},        // C
	{"go.gc_pause_ms_per_round", "ms", false},         // C
	{"go.gc_cpu_share", "%", false},                   // P
	{"go.peak_rss_mb", "MB", false},                   // C
	{"bench.trace_overhead_pct", "%", false},          // S
	{"bench.calib_s", "s", false},                     // D
	{"bench.round_samples", "count", true},            // C
	{"bench.reps", "count", true},                     // C
}

// cpuShares maps a P metric to the functions whose cumulative samples it
// sums. The entries of one metric never call each other, so no sample
// counts twice. Worker goroutines start below RefitAll and Schedule, so
// the entries are the functions the workers run.
var cpuShares = map[string][]string{
	"ga.step_cpu_share":            {"repro/internal/ga.(*GA).Step", "repro/internal/ga.New"},
	"core.fit_cpu_share":           {"repro/internal/core.Fit", "repro/internal/core.FitWarm"},
	"agent.refit_cpu_share":        {"repro/internal/agent.(*Agent).Refit"},
	"sim.round_snapshot_cpu_share": {"repro/internal/sim.(*Cluster).Round"},
	"eventsim.queue_cpu_share":     {"repro/internal/eventsim.(*Queue).Push", "repro/internal/eventsim.(*Queue).Pop"},
	"go.gc_cpu_share":              {"runtime.mallocgc", "runtime.gcBgMarkWorker"},
}

// tracedPass sets the workload up afresh and repeats the untraced pass's
// repetitions with spans and a CPU profile on. It returns the instance
// too: the direct measurements use its state.
func tracedPass(def *workloadDef, cfg runConfig, reps int) (*section, instance, error) {
	runtime.GC()
	inst, err := def.setup(cfg.seed)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up for the traced pass: %w", err)
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, nil, err
	}
	profPath := filepath.Join(cfg.scratch, cfg.workload+".cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, nil, err
	}
	tr := newTracer(cfg.workload)
	s := measure(def, inst, tr, cfg, reps)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, nil, err
	}
	if err := tr.write(cfg.traceOut); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	return s, inst, nil
}

// perLayer fills the span, count and profile metrics of the traced pass.
func perLayer(out metricSet, cfg runConfig, plain, traced *section, inst instance) error {
	p := traced.p
	reps := float64(len(traced.reps))
	rounds := float64(p.rounds)
	spans := p.tr.spans
	dur := durations(spans)

	sched := byName(spans, dur, "sched.schedule")
	out.set("sched.schedule_busy_s", "s", sum(sched)/reps)
	out.set("sched.schedule_p50_ms", "ms", 1e3*percentile(sched, 50))
	out.set("sched.schedule_p90_ms", "ms", 1e3*percentile(sched, 90))
	out.set("sched.ns_per_cell", "ns", ratio(1e9*sum(sched), float64(p.cells)))
	out.set("sched.fitness_cells_per_round", "count", ratio(float64(p.cells), rounds))
	out.set("sched.fitness_calls_per_round", "count", ratio(float64(p.calls), rounds))
	out.set("sched.dirty_jobs_per_round", "count", ratio(float64(p.dirty), rounds))
	out.set("sched.racks_per_round", "count", ratio(float64(p.racks), rounds))
	out.set("sched.skipped_round_ratio", "ratio", ratio(float64(p.skipped), rounds))
	out.set("sched.full_round_ratio", "ratio", ratio(float64(p.full), rounds))

	switch in := inst.(type) {
	case *simInstance:
		simS, jct := 0.0, 0.0
		for _, r := range traced.reps {
			simS += r.simS
			jct = r.avgJCT
		}
		out.set("sim.rounds", "count", rounds/reps)
		out.set("sim.sim_s_per_wall_s", "1/s", ratio(simS, sum(traced.repWalls())))
		out.set("sim.avg_jct_s", "s", jct)
		if in.replay {
			out.set("cluster.replay_between_rounds_s", "s", p.betweenS/reps)
		} else {
			out.set("sim.between_rounds_s", "s", p.betweenS/reps)
			out.set("sim.commit_s", "s", p.commitS/reps)
		}
	case *svcInstance:
		self := selfNS(spans)
		out.set("cluster.service_round_ms", "ms", 1e3*percentile(byName(spans, dur, "cluster.service_round"), 50))
		out.set("cluster.service_commit_ms", "ms", 1e3*percentile(byName(spans, dur, "cluster.service_commit"), 50))
		out.set("cluster.submit_report_ns", "ns", ratio(1e9*sum(byName(spans, dur, "cluster.submit_reports")), float64(in.reports)))
		out.set("cluster.reports_per_round", "count", ratio(float64(in.reports), rounds))
		out.set("runtime.step_self_ms", "ms", 1e3*percentile(byName(spans, self, "runtime.step"), 50))
		out.set("sched.alloc_speedup_mean", "x", ratio(in.speedupSum, float64(in.speedupN)))
	}

	out.set("go.gc_cycles_per_round", "count", ratio(float64(traced.gcs), rounds))
	out.set("go.gc_pause_ms_per_round", "ms", ratio(float64(traced.pauseNS)/1e6, rounds))
	out.set("go.peak_rss_mb", "MB", plain.peakRSS) // before tracing and the direct calls add theirs
	base := median(plain.repWalls())
	out.set("bench.trace_overhead_pct", "%", 100*ratio(median(traced.repWalls())-base, base))
	out.set("bench.calib_s", "s", calibrate())
	out.set("bench.round_samples", "count", float64(len(plain.p.roundMS)))
	out.set("bench.reps", "count", float64(len(plain.reps)))

	cum, err := profileTop(filepath.Join(cfg.scratch, cfg.workload+".cpu.pprof"))
	if err != nil {
		return err
	}
	for name, funcs := range cpuShares {
		share := 0.0
		for _, f := range funcs {
			share += cum[f]
		}
		out.set(name, "%", share)
	}
	return nil
}
