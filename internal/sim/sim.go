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

// Engine selects how the simulation clock advances.
const (
	// EngineEvent is the discrete-event engine (the default): the clock
	// jumps between scheduled events and job progress advances in closed
	// form between them. See internal/eventsim and engine_event.go.
	EngineEvent = "event"
	// EngineTick is the original fixed-step engine, kept as a parity
	// oracle for the event engine and for tick-resolution studies.
	EngineTick = "tick"
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
	// under either autoscaling mode; releases are immediate.
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
	// Tick is the fixed step of the tick engine and, for the event
	// engine, the profiling resolution: an advanced segment is weighted
	// as dt/Tick throughput observations so agents see the same
	// profile statistics under either engine. Default 1 s.
	Tick float64
	// Engine selects the simulation engine: EngineEvent (default) or
	// EngineTick. Both implement the same cluster semantics; the event
	// engine is an order of magnitude faster because it skips the time
	// between events.
	Engine string
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
	// Parallel bounds how many seeds RunSeeds simulates concurrently
	// (each seed owns a fresh rng, trace, and policy, so seeds are
	// independent); 0 or 1 runs them serially. Results are identical
	// either way: every seed's run is deterministic and summaries are
	// reduced in seed order.
	Parallel int
	// RefitWorkers bounds how many agent refits (core.Fit L-BFGS runs)
	// execute concurrently within one report round; 0 defaults to
	// GOMAXPROCS and 1 runs them serially. The noise-scale rng draws stay
	// on the simulation goroutine and fits draw no randomness, so traces
	// are bit-identical at any worker count.
	RefitWorkers int
	// FrontEnd configures the multi-tenant serving front end (admission +
	// priority, internal/admit) that gates arrivals and orders the
	// scheduler's snapshot; nil disables it, leaving the control loop
	// bit-identical to a front-end-less build. Invalid policy names panic
	// in NewCluster, like an invalid Engine.
	FrontEnd *admit.Options
	// Autoscale enables Sec. 4.2.2 multi-job cluster autoscaling: Nodes
	// then acts as the maximum cluster size and the active size varies.
	Autoscale *ClusterAutoscaleConfig
	// LogEvents records a structured event log (submissions,
	// re-allocations, batch changes, completions) in the Result.
	LogEvents bool
	// OnRound, when set, runs after every scheduling round with the
	// simulation time of the round, under both engines. It exists for
	// observability (the opt-in pollux-sim status endpoint publishes
	// from it) and for checkpoint round-trip tests; implementations
	// observe — they must not mutate the cluster.
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
	if c.Engine == "" {
		c.Engine = EngineEvent
	}
	if c.Engine != EngineEvent && c.Engine != EngineTick {
		panic(fmt.Sprintf("sim: unknown engine %q (want %q or %q)", c.Engine, EngineEvent, EngineTick))
	}
	if c.MaxTime <= 0 {
		c.MaxTime = DefaultMaxTime
	}
	if c.RefitWorkers <= 0 {
		c.RefitWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Autoscale != nil {
		// Resolved on a copy: the caller's struct may configure clusters of
		// other sizes, concurrently (RunSeedsFull).
		as := c.Autoscale.resolved(c.Nodes)
		c.Autoscale = &as
	}
}

// jobState is the cluster simulator's holder of one job: the trace entry,
// where it stands with admission and the scheduler, and the allocation row
// its Job's placement was derived from.
type jobState struct {
	Job
	wj       workload.Job
	idx      int // position in Cluster.jobs, the trace order
	useTuned bool

	// alloc is the committed row itself: the slice the policy returned, or
	// the cluster's zero row while the job holds nothing. It is never
	// written; setRow replaces it.
	alloc []int

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

// Result aggregates one run, of any engine.
type Result struct {
	Summary metrics.Summary
	// PerJob finishing records aligned with the trace order.
	Records []metrics.JobRecord
	// AvgThroughput and AvgGoodput are example-rate means over all
	// job-running time, for the Sec. 5.2.1 relative comparisons.
	AvgThroughput float64
	AvgGoodput    float64
	// CostNodeSeconds integrates the paid cluster size over the run
	// (meaningful under cluster autoscaling; otherwise nodes x makespan).
	// The replay testbed has a fixed cluster and leaves it zero.
	CostNodeSeconds float64
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
// and the front end's counters (nil without one). CostNodeSeconds and
// Events are the engine's to fill in.
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

	// Cluster autoscaling state (Sec. 4.2.2). With autoscaling disabled,
	// activeNodes stays at cfg.Nodes.
	activeNodes  int
	provisioning int
	provisionAt  float64
	nodeSeconds  float64
	lastCost     float64 // event engine: time nodeSeconds was integrated to

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

	// zero is the row every job without GPUs shares, and usage the per-node
	// sum of the live jobs' rows, kept current by setRow.
	zero, usage []int

	// view is the one snapshot Round refills, from viewJobs and viewRows:
	// a front end swaps slices of its own into the view it is handed, so
	// the buffers are kept here and the view is never read back. capacity
	// was built for capNodes active nodes and is replaced, not rewritten,
	// when that changes.
	view     sched.ClusterView
	viewJobs []sched.JobView
	viewRows ga.Matrix
	capacity []int
	capNodes int

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
	c := &Cluster{
		cfg: cfg, policy: policy, fe: fe, restartDelay: RestartDelay, activeNodes: cfg.Nodes,
		zero: make([]int, cfg.Nodes), usage: make([]int, cfg.Nodes), distJobs: make([]int, cfg.Nodes),
	}
	if cfg.Autoscale != nil {
		c.activeNodes = cfg.Autoscale.MinNodes
	}
	for _, wj := range trace.Jobs {
		spec := models.ByName(wj.Model)
		if spec == nil {
			continue
		}
		useTuned := cfg.UseTunedConfig
		if cfg.TunedFraction > 0 {
			useTuned = rng.Float64() < cfg.TunedFraction
		}
		js := &jobState{
			Job:      NewJob(spec, rng), // Pollux starts every job at m0 on 1 GPU
			wj:       wj,
			idx:      len(c.jobs),
			useTuned: useTuned,
			alloc:    c.zero,
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

// Run executes the simulation to completion (all jobs done or MaxTime)
// under the configured engine.
func (c *Cluster) Run() Result {
	if c.cfg.Engine == EngineTick {
		return c.runTick()
	}
	return c.runEvent()
}

// runTick is the fixed-step engine: wall-clock advances by cfg.Tick and
// every job's progress is accumulated tick by tick.
func (c *Cluster) runTick() Result {
	cfg := c.cfg
	nextSched := 0.0
	nextAgent := 0.0
	for c.now = 0; c.now < cfg.MaxTime; c.now += cfg.Tick {
		c.submitArrivals()
		if c.now >= nextAgent {
			c.agentTick()
			nextAgent += AgentInterval
		}
		if c.now >= nextSched {
			if cfg.Autoscale != nil {
				c.autoscaleTick()
			}
			c.scheduleTick()
			nextSched += SchedInterval
		}
		c.nodeSeconds += float64(c.activeNodes+c.provisioning) * cfg.Tick
		c.advance(cfg.Tick)
		if c.allDone() {
			break
		}
	}
	return c.result()
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
// admission in trace order (submit-sorted, ties in stable ID order) under
// every engine — the same order cluster.Replay presents them — and the
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
//     over cfg.RefitWorkers goroutines (agent.RefitAll); fits touch no
//     rng and no shared state, so results are bit-identical to serial;
//  3. serial: batch re-tuning and event records, again in job order.
func (c *Cluster) agentTick() {
	run, agents := c.running[:0], c.agents[:0]
	for _, j := range c.active() {
		if j.Placement.GPUs == 0 {
			continue
		}
		j.ObservePhi()
		run, agents = append(run, j), append(agents, j.Agent)
	}
	c.running, c.agents = run, agents
	agent.RefitAll(agents, c.cfg.RefitWorkers)
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
// view the cluster keeps, so a steady round allocates nothing: the rows
// are the jobs' own (see jobState.alloc), the capacity slice changes only
// with the cluster size, and the usage totals are the cluster's, which
// Step copies before it subtracts.
func (c *Cluster) Round(now float64) *sched.ClusterView {
	if c.capacity == nil || c.capNodes != c.activeNodes {
		c.capacity, c.capNodes = make([]int, c.cfg.Nodes), c.activeNodes
		for n := 0; n < c.activeNodes && n < len(c.capacity); n++ {
			c.capacity[n] = c.cfg.GPUsPerNode
		}
	}
	jobs, rows := c.viewJobs[:0], c.viewRows[:0]
	for _, j := range c.active() {
		rows = append(rows, j.alloc)
		gpus, batch := j.fixedBatch()
		jobs = append(jobs, sched.JobView{
			ID:             j.wj.ID,
			Submit:         j.wj.Submit,
			Tenant:         j.wj.Tenant,
			Deadline:       j.wj.Deadline,
			Model:          j.Agent.Report(),
			GPUCap:         j.Agent.GPUCap(),
			UserGPUs:       gpus,
			UserBatch:      batch,
			MinGPUs:        j.MinGPUs(batch),
			RemainingIters: j.RemainingIters(batch),
			GPUTime:        j.GPUTime,
		})
	}
	c.viewJobs, c.viewRows = jobs, rows
	c.view = sched.ClusterView{Now: now, Capacity: c.capacity, Jobs: jobs, Current: rows, Usage: c.usage}
	return &c.view
}

// Commit installs the rows of the validated allocation matrix that
// changed on the last Round's jobs — nothing finishes between the two, so
// they are the live list; interference is recomputed once per round, as
// the tick engines always have.
func (c *Cluster) Commit(m ga.Matrix, changed []bool) error {
	for i, j := range c.live {
		if changed[i] {
			c.applyAlloc(j, m[i])
		}
	}
	c.recomputeInterference()
	return nil
}

// setRow is the one write path for allocation rows: it replaces the job's
// slice and moves the usage totals. The old slice is left as it was, since
// the view, the policy and the front end may still hold it.
func (c *Cluster) setRow(j *jobState, row []int) {
	for n, g := range j.alloc {
		c.usage[n] -= g
	}
	for n, g := range row {
		c.usage[n] += g
	}
	j.alloc = row
}

// applyAlloc installs a changed allocation row on a job, by reference, and
// charges the checkpoint-restart delay.
func (c *Cluster) applyAlloc(j *jobState, row []int) {
	c.setRow(j, row)
	j.Placement = sched.PlacementOf(row)
	c.record(Event{Time: c.now, Job: j.wj.ID, Kind: EventAllocate, Placement: j.Placement})
	if j.Placement.GPUs > 0 {
		j.RestartUntil = c.now + c.restartDelay
		// Re-clamp the batch: the new placement may not fit the old one.
		if c.policy.AdaptsBatchSize() {
			j.Batch, _ = j.Agent.TuneBatch(j.Placement)
		}
	}
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
		for n, g := range j.alloc {
			if g > 0 {
				c.distJobs[n]++
			}
		}
	}
	for _, j := range act {
		if j.Placement.Nodes <= 1 {
			continue
		}
		for n, g := range j.alloc {
			if g > 0 && c.distJobs[n] > 1 {
				j.slowdown = c.cfg.InterferenceSlowdown
				break
			}
		}
	}
}

// advance progresses every running job by dt seconds of training.
func (c *Cluster) advance(dt float64) {
	for _, j := range c.active() {
		if j.Placement.GPUs == 0 || c.now < j.RestartUntil {
			continue
		}
		m := j.ClusterBatch()
		if m == 0 {
			continue // cannot run: initial batch does not fit
		}
		j.Step(m, j.slowdown, dt)
		if j.Finished() {
			c.finishJob(j, c.now+dt)
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
	c.setRow(j, c.zero)
	j.Placement = core.Placement{}
	j.rate = jobRate{}
}

func (c *Cluster) result() Result {
	outcomes := make([]Outcome, len(c.jobs))
	for i, j := range c.jobs {
		outcomes[i] = Outcome{Trace: j.wj, Finish: j.finish, Rejected: j.rejected, Job: &j.Job}
	}
	res := Summarize(outcomes, c.fe)
	res.CostNodeSeconds = c.nodeSeconds
	res.Events = c.events
	return res
}

// RunSeeds runs the same trace parameters across several seeds (fresh
// traces and policies per seed, as in Sec. 5.3) and averages summaries.
// newPolicy must return a fresh policy for each seed. When cfg.Parallel
// is above 1, that many seeds are simulated concurrently; every seed's
// run is deterministic and results land in per-seed slots reduced in
// seed order, so the average is identical to a serial run.
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
// averaged summary (per-tenant breakdowns, admission logs). Parallelism
// follows the same Config.Parallel contract as RunSeeds.
func RunSeedsFull(seeds []int64, genTrace func(rng *rand.Rand) workload.Trace,
	newPolicy func(seed int64) sched.Policy, cfg Config) []Result {
	// Concurrent seeds already saturate the cores; letting each seed's
	// cluster also default RefitWorkers to GOMAXPROCS would run up to
	// seeds x cores L-BFGS fits at once for no added throughput. Split
	// the budget: an unset knob gets the cores left per concurrent seed.
	// An explicit value is respected, and results are identical either
	// way — worker counts never change traces.
	if inFlight := min(cfg.Parallel, len(seeds)); inFlight > 1 && cfg.RefitWorkers == 0 {
		cfg.RefitWorkers = max(1, runtime.GOMAXPROCS(0)/inFlight)
	}
	out := make([]Result, len(seeds))
	par.For(cfg.Parallel, len(seeds), func(i int) {
		seed := seeds[i]
		rng := rand.New(rand.NewSource(seed))
		trace := genTrace(rng)
		c := cfg
		c.Seed = seed
		out[i] = NewCluster(trace, newPolicy(seed), c).Run()
	})
	return out
}
