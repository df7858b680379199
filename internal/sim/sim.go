// Package sim is the discrete-time cluster simulator used to evaluate the
// scheduling policies (Sec. 5.3 of the Pollux paper). It replays the model
// zoo's ground-truth throughput and gradient-noise-scale behaviour for
// every job in a trace, while the schedulers observe only what a real
// deployment would expose: noisy per-iteration timings and gradient
// statistics profiled by each job's agent.
//
// The simulator reproduces the system effects the paper's simulator
// models: placement-sensitive iteration times, a 30-second
// checkpoint-restart delay whenever a job's resources are re-allocated,
// and optional artificial network interference between distributed jobs
// sharing a node (Sec. 5.3.2).
package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/admit"
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/par"
	rounds "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The control loop's timing and measurement noise, fixed as the paper fixes
// them. This is their one declaration: the cluster simulator, RunAutoscale,
// cluster.Replay with its trainers and the pollux-sched daemon all read it.
const (
	// SchedInterval is the period of scheduling rounds and of autoscaling
	// decisions (Sec. 5.1).
	SchedInterval float64 = 60
	// AgentInterval is the period at which a job's agent reports its
	// fitted goodput function and re-tunes the batch size (Sec. 5.1).
	AgentInterval float64 = 30
	// RestartDelay is the checkpoint-restart pause a job pays when its
	// allocation changes (Sec. 5.3).
	RestartDelay float64 = 30
	// ProvisionDelay is how long newly requested cloud nodes take to join
	// an autoscaled run; releases are immediate.
	ProvisionDelay float64 = 60
	// DefaultMaxTime is the horizon of a run that sets no MaxTime: 14 days.
	DefaultMaxTime float64 = 14 * 24 * 3600
	// NoiseFrac is the relative measurement noise on profiled iteration
	// times and noise-scale observations.
	NoiseFrac float64 = 0.05
)

// Config controls one simulation run.
type Config struct {
	Nodes       int // number of nodes; default 16
	GPUsPerNode int // GPUs per node; default 4
	// Tick is the profiling resolution: an advanced segment is weighted
	// as dt/Tick throughput observations, the count a profiler sampling
	// once per Tick would record. Default 1 s.
	Tick float64
	// InterferenceSlowdown in [0, 1) slows distributed jobs that share a
	// node with another distributed job (Sec. 5.3.2); 0 disables.
	InterferenceSlowdown float64
	// UseTunedConfig selects each job's tuned (Sec. 5.2) rather than
	// user (Sec. 5.3.1) configuration for the baselines. TunedFraction
	// overrides it when in (0,1]: that fraction of jobs (chosen
	// randomly) is tuned, the rest user-configured (Fig. 7 mixtures).
	UseTunedConfig bool
	TunedFraction  float64
	// MaxTime caps the simulation (default DefaultMaxTime).
	MaxTime float64
	Seed    int64
	// FrontEnd configures the multi-tenant serving front end (admission +
	// priority, internal/admit) that gates arrivals and orders the
	// scheduler's snapshot; nil disables it, leaving the control loop
	// bit-identical to a front-end-less build. Invalid policy names panic
	// in NewCluster.
	FrontEnd *admit.Options
	// LogEvents records a structured event log (submissions,
	// re-allocations, batch changes, completions) in the Result.
	LogEvents bool
	// OnRound, when set, runs after every scheduling round with the
	// simulation time of the round. It exists for observability (the
	// opt-in pollux-sim status endpoint publishes from it) and for tests
	// that check a run between rounds; implementations observe — they
	// must not mutate the cluster.
	OnRound func(now float64)
}

func (c *Config) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.GPUsPerNode <= 0 {
		c.GPUsPerNode = 4
	}
	if c.Tick <= 0 {
		c.Tick = 1
	}
	if c.MaxTime <= 0 {
		c.MaxTime = DefaultMaxTime
	}
}

// jobState is the cluster simulator's holder of one job: the trace entry
// and where it stands with admission and the scheduler. Its allocation row
// is slot idx of the cluster's ledger.
type jobState struct {
	Job
	// wj is the job's entry in the trace the cluster was built from. No
	// caller writes a trace once a run has it, and every caller keeps it,
	// so pointing at the entry saves a copy of the trace per cluster.
	wj  *workload.Job
	idx int // position in Cluster.jobs, the trace order, and ledger slot

	useTuned  bool
	submitted bool
	rejected  bool // turned away by the admission stage; implies done
	done      bool
	finish    float64
	// slowdown is cfg.InterferenceSlowdown while the job shares a node
	// with another distributed job (Sec. 5.3.2), else 0.
	slowdown float64

	// restartEv is the restart expiry the event engine has already
	// scheduled as an event.
	restartEv float64
}

// fixedBatch returns the baseline batch size for this job (tuned or user).
func (j *jobState) fixedBatch() (gpus, batch int) {
	if j.useTuned {
		return j.wj.TunedGPUs, j.wj.TunedBatch
	}
	return j.wj.UserGPUs, j.wj.UserBatch
}

// Result aggregates one run, of the simulator or of cluster.Replay.
type Result struct {
	Summary metrics.Summary
	// PerJob finishing records aligned with the trace order.
	Records []metrics.JobRecord
	// AvgThroughput and AvgGoodput are example-rate means over all
	// job-running time, for the Sec. 5.2.1 relative comparisons.
	AvgThroughput float64
	AvgGoodput    float64
	// PerModel breaks JCT statistics down by zoo model, mirroring the
	// paper's per-category discussion (Small/Medium/Large/XLarge map
	// onto models one-to-one except the two Small workloads).
	PerModel map[string]metrics.Summary
	// PerTenant breaks the run down by tenant for multi-tenant traces:
	// JCT statistics plus the front end's admission counters and queue
	// depths. Nil for single-tenant runs.
	PerTenant map[string]metrics.TenantSummary
	// Admissions is the front end's decision log in arrival order (nil
	// without a front end) — the cross-deployment parity surface.
	Admissions []admit.Decision
	// Events is the structured event log (populated when
	// Config.LogEvents is set).
	Events []Event
}

// Outcome is how one trace job ended: its finish time (zero when it did
// not finish), whether admission turned it away, and the job itself, whose
// sums are zero when it never ran.
type Outcome struct {
	Trace    workload.Job
	Finish   float64
	Rejected bool
	Job      *Job
}

// Summarize builds a run's Result from its jobs' outcomes, in trace order,
// and the front end's counters (nil without one). Events are the engine's
// to fill in.
func Summarize(outcomes []Outcome, fe *admit.FrontEnd) Result {
	var res Result
	var effSum, runSum, tputSum, goodSum float64
	perModel := make(map[string][]metrics.JobRecord)
	goodSums := make([]float64, len(outcomes))
	runTimes := make([]float64, len(outcomes))
	for i, o := range outcomes {
		rec := metrics.JobRecord{
			Submit:   o.Trace.Submit,
			Finish:   o.Finish,
			Tenant:   o.Trace.Tenant,
			Deadline: o.Trace.Deadline,
			Rejected: o.Rejected,
		}
		res.Records = append(res.Records, rec)
		perModel[o.Trace.Model] = append(perModel[o.Trace.Model], rec)
		effSum += o.Job.EffSum
		runSum += o.Job.RunTime
		tputSum += o.Job.TputSum
		goodSum += o.Job.GoodSum
		goodSums[i], runTimes[i] = o.Job.GoodSum, o.Job.RunTime
	}
	res.Summary = metrics.Summarize(res.Records)
	res.PerModel = make(map[string]metrics.Summary, len(perModel))
	//pollux:order-ok keyed write per model name; Summarize is a pure function of recs
	for name, recs := range perModel {
		res.PerModel[name] = metrics.Summarize(recs)
	}
	res.PerTenant = metrics.SummarizeRunTenants(res.Records, goodSums, runTimes, fe)
	res.Admissions = fe.Decisions()
	if runSum > 0 {
		res.Summary.AvgEfficiency = effSum / runSum
		res.AvgThroughput = tputSum / runSum
		res.AvgGoodput = goodSum / runSum
	}
	return res
}

// Cluster simulates one trace under one policy.
type Cluster struct {
	cfg    Config
	policy sched.Policy
	jobs   []*jobState
	now    float64
	fe     *admit.FrontEnd // nil when cfg.FrontEnd is nil
	// restartDelay is RestartDelay; a field so a test can lengthen the pause.
	restartDelay float64
	// refitWorkers bounds the agent refits (core.Fit L-BFGS runs) one
	// report round runs at once: GOMAXPROCS, or what RunSeedsFull leaves
	// each of its concurrent seeds. The noise-scale rng draws stay on the
	// simulation goroutine and fits draw no randomness, so traces are
	// bit-identical at any count.
	refitWorkers int

	// arrivals is jobs by submit time (stable; jobs itself for a
	// submit-sorted trace) and next the cursor submitArrivals has reached.
	// live holds the admitted, unfinished jobs in trace order; a finish
	// only marks its job and sets stale, and active compacts. remaining
	// counts the jobs not done.
	arrivals  []*jobState
	next      int
	live      []*jobState
	stale     bool
	remaining int

	// ledger holds every job's committed row, slot idx: the slice the
	// policy returned, or the ledger's zero row while the job holds nothing.
	ledger *rounds.Ledger

	// view is the one snapshot Round refills, from viewJobs and viewRows:
	// a front end swaps slices of its own into the view it is handed, so
	// the buffers are kept here and the view is never read back. slots and
	// rows are the Install that Commit makes.
	view     sched.ClusterView
	viewJobs []sched.JobView
	viewRows ga.Matrix
	slots    []int
	rows     ga.Matrix

	// Scratch: distributed jobs per node (recomputeInterference), and the
	// running jobs with their agents (agentTick).
	distJobs []int
	running  []*jobState
	agents   []*agent.Agent

	events []Event
}

// NewCluster prepares a simulation of the trace under the policy.
func NewCluster(trace workload.Trace, policy sched.Policy, cfg Config) *Cluster {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	fe, err := admit.New(cfg.FrontEnd)
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	capacity := make([]int, cfg.Nodes)
	for n := range capacity {
		capacity[n] = cfg.GPUsPerNode
	}
	c := &Cluster{
		cfg: cfg, policy: policy, fe: fe, restartDelay: RestartDelay, refitWorkers: runtime.GOMAXPROCS(0),
		ledger: rounds.NewLedger(capacity), distJobs: make([]int, cfg.Nodes),
	}
	zoo := models.Index()
	for i := range trace.Jobs {
		wj := &trace.Jobs[i]
		spec := zoo[wj.Model]
		if spec == nil {
			continue
		}
		useTuned := cfg.UseTunedConfig
		if cfg.TunedFraction > 0 {
			useTuned = rng.Float64() < cfg.TunedFraction
		}
		js := &jobState{
			// Pollux starts every job at m0 on 1 GPU; the agent starts at
			// admission (submitJob).
			Job:      Job{Spec: spec, Batch: spec.M0, rng: rng},
			wj:       wj,
			idx:      c.ledger.Add(),
			useTuned: useTuned,
		}
		if !policy.AdaptsBatchSize() {
			_, js.Batch = js.fixedBatch()
		}
		c.jobs = append(c.jobs, js)
	}
	c.remaining = len(c.jobs)
	c.arrivals = c.jobs
	bySubmit := func(a, b *jobState) int { return cmp.Compare(a.wj.Submit, b.wj.Submit) }
	if !slices.IsSortedFunc(c.jobs, bySubmit) {
		c.arrivals = slices.Clone(c.jobs)
		slices.SortStableFunc(c.arrivals, bySubmit)
	}
	return c
}

// submitArrivals submits every job due by now that an arrival event has
// not submitted already.
func (c *Cluster) submitArrivals() {
	for ; c.next < len(c.arrivals) && c.arrivals[c.next].wj.Submit <= c.now; c.next++ {
		if j := c.arrivals[c.next]; !j.submitted {
			c.submitJob(j)
		}
	}
}

// submitJob runs one arrival through the admission stage. Jobs reach
// admission in trace order (submit-sorted, ties in stable ID order) — the
// same order cluster.Replay presents them — and the
// request carries the trace's submit time, not the engine's clock, so
// admission decisions are bit-identical across deployments. A rejected
// job is terminal: it never becomes active and never finishes. An
// admitted one joins the live list at its place in the trace, which is
// the end unless coincident arrivals were submitted out of trace order.
func (c *Cluster) submitJob(j *jobState) {
	j.submitted = true
	c.record(Event{Time: c.now, Job: j.wj.ID, Kind: EventSubmit})
	gpus, _ := j.fixedBatch()
	if !c.fe.Arrive(admit.Request{Job: j.wj.ID, Tenant: j.wj.Tenant, Time: j.wj.Submit, GPUs: gpus}) {
		j.rejected = true
		j.done = true
		c.remaining--
		c.record(Event{Time: c.now, Job: j.wj.ID, Kind: EventReject})
		return
	}
	// agent.New draws nothing, so when the agent is made moves no trajectory.
	j.Agent = agent.New(j.Spec.M0, j.Spec.Eta0, j.Spec.MaxBatchPerGPU, j.Spec.MaxBatchGlobal)
	c.live = append(c.live, j)
	for k := len(c.live) - 1; k > 0 && c.live[k-1].idx > j.idx; k-- {
		c.live[k-1], c.live[k] = j, c.live[k-1]
	}
}

func (c *Cluster) allDone() bool { return c.remaining == 0 }

// active returns the submitted, unfinished jobs in trace order: the live
// list itself, compacted here when a job has finished since the last
// call. A loop over it may finish jobs (finishJob only marks) but must not
// call active again after one.
func (c *Cluster) active() []*jobState {
	if c.stale {
		c.live = slices.DeleteFunc(c.live, func(j *jobState) bool { return j.done })
		c.stale = false
	}
	return c.live
}

// agentTick refreshes every running job's fitted model, replayed noise
// scale, and — under Pollux — its tuned batch size. It runs in three
// phases so the per-round refits — the dominant CPU cost of large cluster
// simulations — can fan out across cores without perturbing the trace:
//
//  1. serial: the noise-scale rng draws happen on the simulation
//     goroutine in job order (the draw order is load-bearing for
//     reproducibility) while the running jobs are collected;
//  2. parallel: the L-BFGS refits of the agents that need one fan out
//     over refitWorkers goroutines (agent.RefitAll); fits touch no
//     rng and no shared state, so results are bit-identical to serial;
//  3. serial: batch re-tuning and event records, again in job order.
//
// A policy that neither reads the model nor tunes batches reads no fit, so
// phases 2 and 3 are skipped; the draws of phase 1 are not.
func (c *Cluster) agentTick() {
	run := c.running[:0]
	for _, j := range c.active() {
		if j.Placement.GPUs == 0 {
			continue
		}
		j.ObservePhi()
		run = append(run, j)
	}
	c.running = run
	if !c.policy.ReadsModel() && !c.policy.AdaptsBatchSize() {
		return
	}
	agents := c.agents[:0]
	for _, j := range run {
		agents = append(agents, j.Agent)
	}
	agent.RefitAll(agents, c.refitWorkers)
	clear(agents) // the scratch keeps no agent past its job's finish
	c.agents = agents[:0]
	if !c.policy.AdaptsBatchSize() {
		return
	}
	for _, j := range run {
		prev := j.Batch
		j.Batch, _ = j.Agent.TuneBatch(j.Placement)
		if j.Batch != prev {
			c.record(Event{Time: c.now, Job: j.wj.ID, Kind: EventBatchChange, Batch: j.Batch})
		}
	}
}

// scheduleTick runs one scheduling round through the shared
// runtime.Step core (snapshot, policy, validation, diff, commit). A
// malformed or oversubscribing policy result aborts the round before
// any allocation is touched and the simulation carries on with the
// previous allocations — the same defensive silent skip the engines
// always had for malformed output (in-tree policies never trip it; a
// policy that trips it every round shows up as zero completions), now
// with matrix-wide capacity validation included.
func (c *Cluster) scheduleTick() {
	rounds.Step(c, c.fe, c.policy, c.now) //nolint:errcheck // defensive skip
	if c.cfg.OnRound != nil {
		c.cfg.OnRound(c.now)
	}
}

// Round snapshots the scheduler inputs for runtime.Step: every active
// job's reported goodput model, fixed configuration, attained service,
// and current allocation row, in submission order. It refills the one
// view the cluster keeps, so a steady round allocates nothing: the rows,
// the capacity and the usage totals are the ledger's own, which Step
// copies before it subtracts.
func (c *Cluster) Round(now float64) *sched.ClusterView {
	readsModel := c.policy.ReadsModel()
	jobs, rows := c.viewJobs[:0], c.viewRows[:0]
	for _, j := range c.active() {
		rows = append(rows, c.ledger.Row(j.idx))
		gpus, batch := j.fixedBatch()
		var model core.Model // zero for a policy that reads none: no fit behind it
		if readsModel {
			model = j.Agent.Report()
		}
		jobs = append(jobs, sched.JobView{
			ID:             j.wj.ID,
			Submit:         j.wj.Submit,
			Tenant:         j.wj.Tenant,
			Deadline:       j.wj.Deadline,
			Model:          model,
			GPUCap:         j.Agent.GPUCap(),
			UserGPUs:       gpus,
			UserBatch:      batch,
			MinGPUs:        j.MinGPUs(batch),
			RemainingIters: j.RemainingIters(batch),
			GPUTime:        j.GPUTime,
		})
	}
	c.viewJobs, c.viewRows = jobs, rows
	c.view = sched.ClusterView{Now: now, Capacity: c.ledger.Capacity(), Jobs: jobs, Current: rows, Usage: c.ledger.Usage()}
	return &c.view
}

// Commit installs the rows of the validated allocation matrix that
// changed on the last Round's jobs — nothing finishes between the two, so
// they are the live list — in the ledger, by reference, and only then
// charges restarts; interference is recomputed once per round.
func (c *Cluster) Commit(m ga.Matrix, changed []bool) error {
	slots, rows := c.slots[:0], c.rows[:0]
	for i, j := range c.live {
		if changed[i] {
			slots, rows = append(slots, j.idx), append(rows, m[i])
		}
	}
	c.slots, c.rows = slots, rows
	if err := c.ledger.Install(slots, rows); err != nil {
		return err
	}
	for k, slot := range slots {
		j := c.jobs[slot]
		j.Placement = sched.PlacementOf(rows[k])
		c.record(Event{Time: c.now, Job: j.wj.ID, Kind: EventAllocate, Placement: j.Placement})
		if j.Placement.GPUs > 0 {
			j.RestartUntil = c.now + c.restartDelay
			// Re-clamp the batch: the new placement may not fit the old one.
			if c.policy.AdaptsBatchSize() {
				j.Batch, _ = j.Agent.TuneBatch(j.Placement)
			}
		}
	}
	c.recomputeInterference()
	return nil
}

// recomputeInterference marks distributed jobs sharing a node with another
// distributed job. Only called when allocations change.
func (c *Cluster) recomputeInterference() {
	clear(c.distJobs)
	act := c.active()
	for _, j := range act {
		j.slowdown = 0
		if j.Placement.Nodes <= 1 {
			continue
		}
		for n, g := range c.ledger.Row(j.idx) {
			if g > 0 {
				c.distJobs[n]++
			}
		}
	}
	for _, j := range act {
		if j.Placement.Nodes <= 1 {
			continue
		}
		for n, g := range c.ledger.Row(j.idx) {
			if g > 0 && c.distJobs[n] > 1 {
				j.slowdown = c.cfg.InterferenceSlowdown
				break
			}
		}
	}
}

// finishJob completes a job at time t and releases its resources.
// Interference flags of co-located jobs are refreshed at the next
// scheduling round.
func (c *Cluster) finishJob(j *jobState, t float64) {
	j.done = true
	j.finish = t
	c.remaining--
	c.stale = true
	c.record(Event{Time: j.finish, Job: j.wj.ID, Kind: EventFinish})
	c.ledger.Install([]int{j.idx}, ga.Matrix{c.ledger.Zero()}) //nolint:errcheck // a release always fits
	j.Placement = core.Placement{}
	j.rate = jobRate{}
	j.Agent = nil
}

func (c *Cluster) result() Result {
	outcomes := make([]Outcome, len(c.jobs))
	for i, j := range c.jobs {
		outcomes[i] = Outcome{Trace: *j.wj, Finish: j.finish, Rejected: j.rejected, Job: &j.Job}
	}
	res := Summarize(outcomes, c.fe)
	res.Events = c.events
	return res
}

// RunSeeds runs the same trace parameters across several seeds (fresh
// traces and policies per seed, as in Sec. 5.3) and averages summaries.
// newPolicy must return a fresh policy for each seed. Up to GOMAXPROCS
// seeds are simulated concurrently (each seed owns a fresh rng, trace and
// policy, so seeds are independent); every seed's run is deterministic
// and results land in per-seed slots reduced in seed order, so the
// average is identical to a serial run.
func RunSeeds(seeds []int64, genTrace func(rng *rand.Rand) workload.Trace,
	newPolicy func(seed int64) sched.Policy, cfg Config) metrics.Summary {
	full := RunSeedsFull(seeds, genTrace, newPolicy, cfg)
	runs := make([]metrics.Summary, len(full))
	tputs := make([]float64, len(full))
	goods := make([]float64, len(full))
	for i, res := range full {
		runs[i] = res.Summary
		tputs[i] = res.AvgThroughput
		goods[i] = res.AvgGoodput
	}
	avg := metrics.Average(runs)
	avg.AvgThroughputX = metrics.Mean(tputs)
	avg.AvgGoodputX = metrics.Mean(goods)
	return avg
}

// RunSeedsFull is RunSeeds without the reduction: it returns every
// seed's full Result in seed order, for callers that need more than the
// averaged summary (per-tenant breakdowns, admission logs). Seeds fan out
// as in RunSeeds.
func RunSeedsFull(seeds []int64, genTrace func(rng *rand.Rand) workload.Trace,
	newPolicy func(seed int64) sched.Policy, cfg Config) []Result {
	// Concurrent seeds already saturate the cores; letting each seed's
	// cluster also run GOMAXPROCS refits would run up to seeds x cores
	// L-BFGS fits at once for no added throughput. Split the budget: each
	// cluster gets the cores left per concurrent seed, at least one since
	// inFlight ≤ procs. Worker counts never change traces.
	procs := runtime.GOMAXPROCS(0)
	inFlight := max(1, min(procs, len(seeds)))
	refitWorkers := procs / inFlight
	out := make([]Result, len(seeds))
	par.For(inFlight, len(seeds), func(i int) {
		seed := seeds[i]
		rng := rand.New(rand.NewSource(seed))
		trace := genTrace(rng)
		c := cfg
		c.Seed = seed
		cl := NewCluster(trace, newPolicy(seed), c)
		cl.refitWorkers = refitWorkers
		out[i] = cl.Run()
	})
	return out
}
