package cluster

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/detrand"
	"repro/internal/eventsim"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/sim"
)

// trainerTick is the simulated seconds per control-loop step: the cadence
// at which a trainer polls its allocation and advances training.
const trainerTick = 5.0

// Transport is the agent's side of the Sec. 4.3 boundary: the two calls
// a trainer makes against the scheduler. *Client implements it over
// net/rpc; Local implements it with direct Service calls so a replay run
// can drive the identical control path in process.
type Transport interface {
	SubmitReport(r Report) error
	GetAllocation(job string) (Allocation, error)
}

// Local is the in-process Transport: direct method calls on the Service,
// bypassing only the gob marshaling of the RPC layer. Results are
// bit-identical to the net/rpc path (see TestReplayTransportParity).
type Local struct{ Svc *Service }

// SubmitReport delivers an agent report.
func (l Local) SubmitReport(r Report) error { return l.Svc.SubmitReport(r, &struct{}{}) }

// GetAllocation polls the job's allocation.
func (l Local) GetAllocation(job string) (Allocation, error) {
	var a Allocation
	err := l.Svc.GetAllocation(job, &a)
	return a, err
}

// Trainer simulates one training job's agent loop: it polls its
// allocation, advances ground-truth training, profiles noisy
// observations into its PolluxAgent, and reports the fitted goodput
// function back to the scheduler — the full Sec. 4.3 agent loop. The
// training itself is a sim.Job, the one the simulator's engines run,
// stepped at trainerTick under the cluster clamp rule. The loop runs on
// the eventsim kernel: Run paces it against the wall clock
// under a compression factor (the live deployment), while the replay
// engine drives many trainers' events through one shared queue on
// virtual time (see Replay).
type Trainer struct {
	Job  string
	Spec *models.Spec

	// Compression maps wall-clock to simulated seconds (e.g. 1000 means
	// one real millisecond simulates one second of training). Run
	// requires it to be positive; set DisableCompression to run unpaced
	// on virtual time instead (an explicit zero alone is an error, so a
	// forgotten field can no longer silently pick a pace).
	Compression float64
	// DisableCompression runs the loop on virtual time: no sleeping at
	// all, as fast as the host allows. Mutually exclusive with a
	// nonzero Compression.
	DisableCompression bool
	Seed               int64

	// FixedBatch pins the training batch size for jobs scheduled by the
	// non-batch-adaptive baselines; 0 (the default) lets the agent
	// re-tune the batch every report, the Pollux behaviour.
	FixedBatch int
	// UserGPUs and UserBatch are the job's fixed submission-time
	// configuration, forwarded in reports for the baseline schedulers
	// (Tiresias wants the GPU count, Optimus+Oracle the batch size and
	// its remaining-iterations oracle). Zero values are fine under
	// Pollux, which ignores them.
	UserGPUs  int
	UserBatch int
	// Tenant and Deadline carry the job's multi-tenant identity and
	// absolute SLO deadline into every report (zero values for
	// single-tenant jobs).
	Tenant   string
	Deadline float64

	// mu orders the driving goroutine's writes to job and done with the
	// accessors below, which any goroutine may call; the zero job of a
	// trainer that has not begun reads as no progress at batch 0.
	mu   sync.Mutex
	job  sim.Job
	done bool

	// Control-loop state, touched only by the driving goroutine. The job's
	// rng is backed by src, a counting source whose (seed, draws) state
	// makes the trainer checkpointable without changing a single draw. The
	// job's RestartUntil is on the trainer's own clock, like simNow.
	transport  Transport
	submit     float64
	src        *detrand.Source
	simNow     float64
	nextReport float64
	lastGen    int
}

// Progress returns the fraction of total work completed, in [0, 1].
func (t *Trainer) Progress() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.job.Progress / t.Spec.TotalWork()
	if p > 1 {
		p = 1
	}
	return p
}

// Batch returns the current batch size.
func (t *Trainer) Batch() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.job.Batch
}

// Done reports completion.
func (t *Trainer) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// clock validates the pacing options and returns the kernel clock the
// trainer's event loop runs under.
func (t *Trainer) clock() (eventsim.Clock, error) {
	if t.DisableCompression {
		if t.Compression != 0 {
			return nil, fmt.Errorf("cluster: Trainer %q sets both Compression and DisableCompression", t.Job)
		}
		return eventsim.Virtual{}, nil
	}
	if t.Compression <= 0 {
		return nil, fmt.Errorf("cluster: Trainer %q needs a positive Compression (or DisableCompression for unpaced virtual time)", t.Job)
	}
	return &eventsim.Wall{Compression: t.Compression}, nil
}

// begin initializes the control loop against a transport and sends the
// initial report.
func (t *Trainer) begin(tr Transport, submit float64) error {
	t.transport = tr
	t.submit = submit
	t.src = detrand.NewSource(t.Seed)
	t.mu.Lock()
	t.job = sim.NewJob(t.Spec, rand.New(t.src))
	if t.FixedBatch > 0 {
		t.job.Batch = t.FixedBatch
	}
	t.mu.Unlock()
	t.lastGen = -1
	t.simNow = 0
	t.nextReport = 0
	return t.report(false)
}

// report sends the agent's current goodput function and accounting.
func (t *Trainer) report(done bool) error {
	model := t.job.Agent.Report()
	var vec [7]float64
	copy(vec[:], model.Params.Vector())
	remIters := 0.0
	if t.UserBatch > 0 {
		remIters = t.job.RemainingIters(t.UserBatch)
	}
	return t.transport.SubmitReport(Report{
		Job: t.Job, Params: vec, Phi: model.Phi,
		M0: model.M0, MaxBatchPerGPU: model.MaxBatchPerGPU,
		MaxBatchGlobal: model.MaxBatchGlobal,
		GPUCap:         t.job.Agent.GPUCap(), GPUTime: t.job.GPUTime,
		UserGPUs: t.UserGPUs, UserBatch: t.UserBatch, RemainingIters: remIters,
		Tenant: t.Tenant, Deadline: t.Deadline,
		Submit: t.submit, Done: done,
	})
}

// tick runs one control-loop step: poll the allocation, detect
// re-allocation and charge the checkpoint-restart pause (sim.RestartDelay),
// advance one trainerTick of training, and report/re-tune every
// sim.AgentInterval.
// It returns whether the job completed (the final Done report included).
func (t *Trainer) tick() (bool, error) {
	alloc, err := t.transport.GetAllocation(t.Job)
	if err != nil {
		return false, err
	}
	pl := sched.PlacementOf(alloc.Row)
	t.mu.Lock()
	t.job.Placement = pl
	if alloc.Generation != t.lastGen {
		t.lastGen = alloc.Generation
		if pl.GPUs > 0 {
			t.job.RestartUntil = t.simNow + sim.RestartDelay
		}
	}
	if m := t.job.ClusterBatch(); m > 0 && t.simNow >= t.job.RestartUntil {
		t.job.Step(m, 0, trainerTick)
		t.done = t.job.Finished()
	}
	t.mu.Unlock()
	t.simNow += trainerTick

	if t.simNow >= t.nextReport {
		t.job.ObservePhi()
		t.job.Agent.Refit()
		if t.FixedBatch == 0 && pl.GPUs > 0 {
			b, _ := t.job.Agent.TuneBatch(pl)
			t.mu.Lock()
			t.job.Batch = b
			t.mu.Unlock()
		}
		if err := t.report(false); err != nil {
			return false, err
		}
		t.nextReport += sim.AgentInterval
	}

	if t.done {
		return true, t.report(true)
	}
	return false, nil
}

// Run drives the job to completion against the scheduler at addr, pacing
// the event loop with the trainer's clock. It returns the total
// simulated seconds the job took.
func (t *Trainer) Run(network, addr string, submit float64) (float64, error) {
	clock, err := t.clock()
	if err != nil {
		return 0, err
	}
	client, err := Dial(network, addr)
	if err != nil {
		return 0, err
	}
	defer client.Close()
	if err := t.begin(client, submit); err != nil {
		return 0, err
	}

	var q eventsim.Queue
	q.Push(eventsim.Event{Time: 0, Class: eventsim.ClassJob, Kind: kindStep})
	var runErr error
	eventsim.Drive(&q, clock, 0, func(e eventsim.Event) bool {
		done, err := t.tick()
		if err != nil {
			runErr = err
			return false
		}
		if done {
			return false
		}
		q.Push(eventsim.Event{Time: e.Time + trainerTick, Class: eventsim.ClassJob, Kind: kindStep})
		return true
	})
	return t.simNow, runErr
}
