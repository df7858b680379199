// Command pollux-sim runs a single trace-driven cluster simulation under a
// chosen scheduling policy and prints its job-completion statistics.
//
// Usage:
//
//	pollux-sim [-policy pollux|optimus|tiresias] [-engine event|replay]
//	           [-jobs 160] [-hours 8] [-nodes 16] [-gpus 4] [-seed 1]
//	           [-scale quick|full|mega] [-user] [-interference 0.5]
//	           [-incremental] [-fullevery 10] [-racksize 16]
//	           [-tenants prod:12:2,batch:20] [-admission quota]
//	           [-quota batch=10] [-priority slo]
//	           [-status 127.0.0.1:7078]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -status serves the read-only observability endpoints (GET /status for
// JSON, GET /metrics for Prometheus text) while a long simulation runs:
// rounds completed, simulated time, and the Pollux per-round work stats.
// It observes state the rounds already produced, so it never changes a
// fixed-seed run's results. Not available under -engine replay.
//
// -incremental switches Pollux to incremental scheduling rounds (only
// jobs whose fitted model, phase, or GPU demand changed are re-placed;
// -fullevery forces a periodic full re-optimization) and -racksize
// enables the hierarchical rack-then-node GA decomposition (on its own,
// every round is a full hierarchical one); both keep the default flat
// full rounds when unset, preserving the fixed-seed baselines bit for
// bit.
//
// -scale presets the cluster shape (-jobs/-hours/-nodes/-gpus/-tick) and
// Pollux's GA budget (population x generations) from the shared quick/full
// experiment scales (internal/cliutil), so a single simulation matches what
// pollux-bench sweeps; explicitly-set shape flags win over the preset.
// Without -scale Pollux runs at the full scale's 50 x 30.
//
// -tenants generates a multi-tenant trace (overriding -jobs), and the
// -admission/-priority/-quota/-bucket-* flags install the serving front
// end (internal/admit) ahead of the scheduler. The front end runs
// identically under every engine, including replay — admission decisions
// are a pure function of the trace — and multi-tenant runs print a
// per-tenant breakdown after the summary.
//
// The replay engine feeds the trace through the live-testbed control
// path (internal/cluster: Service, agent reports, scheduling rounds) on
// virtual time instead of the simulator's in-memory jobs; add -rpc to
// drive the agent boundary over a real loopback net/rpc socket. Replay
// trainers step at a fixed 5 s tick and refit inline, so -tick does not
// apply; -interference and -events are rejected (the testbed path has no
// interference injection or event log).
//
// GOMAXPROCS bounds the run's parallelism: the GA's fitness scorers and
// the agents' per-round refits. Results are bit-identical at any value.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/ga"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/status"
	"repro/internal/workload"
)

// The -engine values: the simulator's discrete-event engine, and the
// testbed control path replayed on virtual time.
const (
	engineEvent  = "event"
	engineReplay = "replay"
)

func main() {
	policy := flag.String("policy", "pollux", "scheduling policy: pollux, optimus, or tiresias")
	jobs := flag.Int("jobs", 160, "number of job submissions")
	hours := flag.Float64("hours", 8, "submission window in hours")
	nodes := flag.Int("nodes", 16, "cluster nodes")
	gpus := flag.Int("gpus", 4, "GPUs per node")
	seed := flag.Int64("seed", 1, "random seed (trace and policy)")
	user := flag.Bool("user", false, "use realistic user configs instead of tuned configs")
	interference := flag.Float64("interference", 0, "artificial slowdown for co-located distributed jobs (0-0.9)")
	noAvoid := flag.Bool("no-avoidance", false, "disable Pollux interference avoidance")
	incremental := flag.Bool("incremental", false,
		"Pollux only: incremental rounds (re-optimize only jobs whose model, phase, or demand changed)")
	fullEvery := flag.Int("fullevery", 0,
		"with -incremental: force a full re-optimization every N rounds (0 = default cadence, negative = never)")
	rackSize := flag.Int("racksize", 0,
		"Pollux only: nodes per rack for hierarchical rack-then-node GA decomposition (0 = flat); without -incremental every round is a full hierarchical one")
	engine := flag.String("engine", engineEvent,
		"simulation engine: event (discrete-event) or replay (testbed control path on virtual time)")
	overRPC := flag.Bool("rpc", false, "with -engine replay: drive the agent boundary over a loopback net/rpc socket")
	tick := flag.Float64("tick", 2, "profiling resolution in seconds (event engine)")
	traceFile := flag.String("trace", "", "load a JSON trace (see pollux-trace -o) instead of generating")
	events := flag.Int("events", 0, "print the last N scheduling events")
	statusAddr := flag.String("status", "",
		"serve /status (JSON) and /metrics (Prometheus text) on this address while the simulation runs")
	var sweep cliutil.Sweep
	sweep.Register(flag.CommandLine, "")
	var fe cliutil.FrontEnd
	fe.Register(flag.CommandLine)
	var prof cliutil.Profile
	prof.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	feOpts, err := fe.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tenants, err := fe.TenantSpecs()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *traceFile != "" && tenants != nil {
		fmt.Fprintln(os.Stderr, "-tenants shapes a generated trace; it cannot be combined with -trace")
		os.Exit(2)
	}

	polluxPop, polluxGens := 50, 30
	if sweep.ScaleName != "" {
		sc, err := sweep.Scale()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		polluxPop, polluxGens = sc.PolluxPop, sc.PolluxGens
		// The preset fills the cluster shape; flags the user set
		// explicitly keep their values.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["jobs"] {
			*jobs = sc.Jobs
		}
		if !explicit["hours"] {
			*hours = sc.Hours
		}
		if !explicit["nodes"] {
			*nodes = sc.Nodes
		}
		if !explicit["gpus"] {
			*gpus = sc.GPUsPerNode
		}
		if !explicit["tick"] {
			*tick = sc.Tick
		}
	}
	if err := checkShape(*nodes, *gpus, *rackSize); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var trace workload.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		trace, err = workload.ReadJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		*jobs = len(trace.Jobs)
	} else {
		rng := rand.New(rand.NewSource(*seed))
		trace = workload.Generate(rng, workload.Options{
			Jobs: *jobs, Hours: *hours,
			GPUsPerNode: *gpus, MaxGPUs: *nodes * *gpus,
			Tenants: tenants,
		})
		*jobs = len(trace.Jobs)
		if err := trace.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
	}

	if *engine != engineEvent && *engine != engineReplay {
		fmt.Fprintf(os.Stderr, "unknown engine %q (want %q or %q)\n", *engine, engineEvent, engineReplay)
		os.Exit(2)
	}

	if (*incremental || *fullEvery != 0 || *rackSize > 0) && *policy != "pollux" {
		fmt.Fprintln(os.Stderr, "-incremental/-fullevery/-racksize only apply to -policy pollux")
		os.Exit(2)
	}

	var p sched.Policy
	switch *policy {
	case "pollux":
		p = sched.NewPollux(sched.PolluxOptions{
			Population: polluxPop, Generations: polluxGens,
			DisableInterferenceAvoidance: *noAvoid,
			Incremental:                  *incremental,
			FullEvery:                    *fullEvery,
			RackSize:                     *rackSize,
		}, *seed)
	case "optimus":
		p = sched.NewOptimus(*gpus)
	case "tiresias":
		p = sched.NewTiresias()
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}

	header := fmt.Sprintf("policy=%s engine=%s jobs=%d cluster=%dx%d GPUs seed=%d configs=%s",
		p.Name(), *engine, *jobs, *nodes, *gpus, *seed, configName(*user))
	if *engine == engineReplay {
		// The testbed control path has no interference injection or
		// event logging; reject the flags rather than silently produce
		// numbers that look comparable to the sim engines but are not.
		if *interference != 0 {
			fmt.Fprintln(os.Stderr, "-interference is not supported by -engine replay")
			os.Exit(2)
		}
		if *events > 0 {
			fmt.Fprintln(os.Stderr, "-events is not supported by -engine replay")
			os.Exit(2)
		}
		if *statusAddr != "" {
			fmt.Fprintln(os.Stderr, "-status is not supported by -engine replay")
			os.Exit(2)
		}
		rep, err := cluster.Replay(trace, p, cluster.ReplayConfig{
			Nodes: *nodes, GPUsPerNode: *gpus,
			UseTunedConfig: !*user, Seed: *seed, OverRPC: *overRPC,
			FrontEnd: feOpts,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		printRun(fmt.Sprintf("%s rpc=%v", header, *overRPC), rep, 0)
		return
	}

	cfg := sim.Config{
		Nodes: *nodes, GPUsPerNode: *gpus, Tick: *tick,
		UseTunedConfig:       !*user,
		InterferenceSlowdown: *interference,
		Seed:                 *seed,
		LogEvents:            *events > 0,
		FrontEnd:             feOpts,
	}
	if *statusAddr != "" {
		// Opt-in observability for long simulations: the registry only
		// reads policy state the round already produced, so serving it
		// cannot change a fixed-seed run's results.
		reg := status.New(p.Name())
		sl, err := net.Listen("tcp", *statusAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "status listener:", err)
			os.Exit(1)
		}
		defer sl.Close()
		fmt.Printf("status endpoint on http://%s/status\n", sl.Addr())
		go http.Serve(sl, reg.Handler())
		pollux, _ := p.(*sched.Pollux)
		prev := time.Now()
		cfg.OnRound = func(now float64) {
			// The sim has no per-round Schedule timer; the wall time
			// between consecutive rounds (GA plus trainer stepping) is the
			// honest cost of advancing one round here.
			elapsed := time.Since(prev).Seconds()
			prev = time.Now()
			var stats sched.RoundStats
			if pollux != nil {
				stats = pollux.LastRoundStats()
			}
			reg.ObserveRound(now, stats.Sub, elapsed, stats, nil)
		}
	}
	res := sim.NewCluster(trace, p, cfg).Run()
	printRun(header, res, *events)
}

// checkShape refuses a cluster shape the simulation would not run as
// printed, naming the flag: no nodes or no GPUs (the simulator would
// substitute its default cluster), and nodes or racks holding more GPUs
// than a cell of Pollux's GA can (ga.MaxCapacity; the rack-level GA of
// -racksize sees a rack as one node).
func checkShape(nodes, gpus, rackSize int) error {
	switch {
	case nodes <= 0:
		return fmt.Errorf("-nodes must be positive, got %d", nodes)
	case gpus <= 0:
		return fmt.Errorf("-gpus must be positive, got %d", gpus)
	case gpus > ga.MaxCapacity:
		return fmt.Errorf("-gpus must be at most %d, got %d", ga.MaxCapacity, gpus)
	case rackSize > 0 && min(rackSize, nodes) > ga.MaxCapacity/gpus:
		return fmt.Errorf("-racksize must hold at most %d GPUs a rack, got %d nodes of %d", ga.MaxCapacity, min(rackSize, nodes), gpus)
	}
	return nil
}

// printRun prints one run of any engine: header, summary row, per-model and
// per-tenant breakdowns, and the last events of the log when asked for.
func printRun(header string, res sim.Result, events int) {
	s := res.Summary

	fmt.Println(header)
	fmt.Print(metrics.Table(
		[]string{"completed", "avg JCT", "p50 JCT", "p99 JCT", "makespan", "stat.eff", "avg tput", "avg goodput"},
		[][]string{{
			fmt.Sprintf("%d/%d", s.Completed, s.Total),
			metrics.Hours(s.AvgJCT), metrics.Hours(s.P50JCT), metrics.Hours(s.P99JCT),
			metrics.Hours(s.Makespan),
			fmt.Sprintf("%.0f%%", 100*s.AvgEfficiency),
			fmt.Sprintf("%.0f ex/s", res.AvgThroughput),
			fmt.Sprintf("%.0f ex/s", res.AvgGoodput),
		}},
	))
	fmt.Println()
	fmt.Print(metrics.Table([]string{"model", "done", "avg JCT", "p99 JCT"}, perModelRows(res)))
	printTenants(res.PerTenant)

	if events > 0 {
		start := len(res.Events) - events
		if start < 0 {
			start = 0
		}
		fmt.Printf("\nlast %d events:\n", len(res.Events)-start)
		for _, e := range res.Events[start:] {
			fmt.Println(" ", e)
		}
	}
}

func perModelRows(res sim.Result) [][]string {
	names := make([]string, 0, len(res.PerModel))
	for name := range res.PerModel {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([][]string, 0, len(names))
	for _, name := range names {
		s := res.PerModel[name]
		if s.Total == 0 {
			continue
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d/%d", s.Completed, s.Total),
			metrics.Hours(s.AvgJCT),
			metrics.Hours(s.P99JCT),
		})
	}
	return rows
}

// printTenants renders the per-tenant breakdown of a multi-tenant run
// (a no-op for single-tenant traces).
func printTenants(per map[string]metrics.TenantSummary) {
	if len(per) == 0 {
		return
	}
	names := make([]string, 0, len(per))
	for name := range per {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([][]string, 0, len(names))
	for _, name := range names {
		ts := per[name]
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d/%d", ts.Admitted, ts.Submitted),
			fmt.Sprintf("%d", ts.Rejected),
			fmt.Sprintf("%d/%d", ts.Summary.Completed, ts.Summary.Total),
			metrics.Hours(ts.Summary.AvgJCT),
			fmt.Sprintf("%.0f ex/s", ts.AvgGoodput),
			fmt.Sprintf("%.1f", ts.AvgQueueDepth),
			fmt.Sprintf("%d/%d", ts.SLOMet, ts.SLOJobs),
		})
	}
	fmt.Println()
	fmt.Print(metrics.Table(
		[]string{"tenant", "admitted", "rejected", "done", "avg JCT", "goodput", "queue", "SLO met"},
		rows))
}

func configName(user bool) string {
	if user {
		return "user (Sec. 5.3.1)"
	}
	return "tuned (Sec. 5.2)"
}
