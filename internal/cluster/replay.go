// Replay mode: the live-testbed control path on virtual time.
//
// Replay feeds a workload trace through the exact components a live run
// uses — Trainers with their own rngs and PolluxAgents, the Service's
// report/allocation bookkeeping, the shared runtime.Step scheduling
// round — but drives every trainer's control loop and every scheduling
// round through one eventsim queue on a virtual clock. Nothing sleeps
// and nothing races: events fire in the kernel's deterministic order, so
// a replay is bit-reproducible for a fixed seed and directly comparable
// to the trace-driven simulator's output on the same trace.
//
// Replay is also the checkpoint verifier: ReplayToCheckpoint stops at the
// first scheduling round at or after a cut time and serializes the whole
// deployment (service, policy, live trainers), and ResumeReplay continues
// from that snapshot. The resumed run's Result is bit-identical to the
// straight-through run — the bar TestReplayCheckpointResume pins at the
// same level as TestReplayDeterminism.
package cluster

import (
	"fmt"
	"net"
	"reflect"

	"repro/internal/admit"
	"repro/internal/eventsim"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Event kinds of the testbed event loop. At one instant the scheduling
// round (cluster class) runs before any trainer event; among trainer
// events, arrivals precede steps.
const (
	kindSched  = iota // cluster class: scheduling round
	kindArrive        // job class: trace arrival, the trainer comes up
	kindStep          // job class: one trainer control-loop step
)

// ReplayConfig controls one replay run. The zero value takes the
// simulator's defaults: a 16x4 cluster and sim.DefaultMaxTime. Rounds,
// reports and restart pauses keep the simulator's timing (sim.SchedInterval,
// sim.AgentInterval, sim.RestartDelay).
type ReplayConfig struct {
	Nodes       int // default 16
	GPUsPerNode int // default 4
	// MaxTime caps the replay (default sim.DefaultMaxTime).
	MaxTime float64
	Seed    int64
	// UseTunedConfig selects each job's tuned rather than user
	// configuration for the baseline schedulers, as sim.Config does.
	UseTunedConfig bool
	// FrontEnd configures the multi-tenant serving front end (admission +
	// priority, internal/admit) installed on the Service; nil disables
	// it. The same options given to sim.Config.FrontEnd produce
	// bit-identical admission decisions here (see the parity test).
	FrontEnd *admit.Options
	// OverRPC drives every trainer's reports and allocation polls
	// through a real net/rpc connection on a loopback socket instead of
	// in-process Service calls. Calls are synchronous round trips from
	// the single event-loop goroutine, so the run stays deterministic;
	// results are bit-identical to the in-process transport.
	OverRPC bool
}

func (c *ReplayConfig) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.GPUsPerNode <= 0 {
		c.GPUsPerNode = 4
	}
	if c.MaxTime <= 0 {
		c.MaxTime = sim.DefaultMaxTime
	}
}

// replayTask pairs a trace job with its live trainer.
type replayTask struct {
	wj       workload.Job
	tr       *Trainer
	finish   float64
	rejected bool
}

// PolicyCheckpointer is the scheduling policy side of the checkpoint
// contract: sched.Pollux implements it. ReplayToCheckpoint (and the
// pollux-sched daemon) require it, since resuming a stateful policy
// without its state would silently diverge from the uninterrupted run.
type PolicyCheckpointer interface {
	sched.Policy
	Snapshot() *sched.PolluxSnapshot
	Restore(*sched.PolluxSnapshot) error
}

// TaskSnapshot is one trace job's progress through a replay: whether it
// arrived, whether admission rejected it, whether it finished (and when),
// and — for a job whose trainer is up — the trainer state. Trainer is nil
// exactly when the job has not arrived or was rejected.
type TaskSnapshot struct {
	Job      int
	Arrived  bool             `json:",omitempty"`
	Rejected bool             `json:",omitempty"`
	Finished bool             `json:",omitempty"`
	Finish   float64          `json:",omitempty"`
	Trainer  *TrainerSnapshot `json:",omitempty"`
}

// ReplayCheckpoint is a whole replay deployment frozen between two
// scheduling rounds: the config and trace shape it was taken under (echoed
// for loud mismatch detection), the service and policy state, every
// task's progress, and the time of the scheduling round that was due
// next. The pending event queue is deliberately absent — it is derivable:
// un-arrived jobs re-enter at their trace submit times, each live
// trainer's next step is Submit+SimNow, and the next round is NextSched.
type ReplayCheckpoint struct {
	Config    ReplayConfig
	Jobs      int // len(trace.Jobs) echo
	NextSched float64
	Service   *ServiceSnapshot
	Policy    *sched.PolluxSnapshot
	Tasks     []TaskSnapshot
}

// replayRun is one replay deployment: the service, transport, tasks, and
// event queue shared by the fresh-start and resume-from-checkpoint paths.
type replayRun struct {
	cfg    ReplayConfig
	policy sched.Policy
	svc    *Service
	fe     *admit.FrontEnd
	trans  Transport
	tasks  []*replayTask
	byID   map[int]*replayTask
	q      eventsim.Queue
	done   int
	closer func()
}

// newReplayRun builds the deployment for a trace: state, service, front
// end, transport, and one trainer per known-model trace job. It pushes no
// events; the caller seeds the queue for a fresh start or a resume.
func newReplayRun(trace workload.Trace, policy sched.Policy, cfg ReplayConfig) (*replayRun, error) {
	capacity := make([]int, cfg.Nodes)
	for i := range capacity {
		capacity[i] = cfg.GPUsPerNode
	}
	svc := NewService(NewState(capacity))
	fe, err := admit.New(cfg.FrontEnd)
	if err != nil {
		return nil, err
	}
	svc.SetFrontEnd(fe)
	r := &replayRun{cfg: cfg, policy: policy, svc: svc, fe: fe, byID: make(map[int]*replayTask)}

	r.trans = Local{Svc: svc}
	if cfg.OverRPC {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go Serve(svc, ln)
		client, err := Dial("tcp", ln.Addr().String())
		if err != nil {
			ln.Close()
			return nil, err
		}
		r.trans = client
		r.closer = func() {
			client.Close()
			ln.Close()
		}
	}

	adaptive := policy.AdaptsBatchSize()
	for _, wj := range trace.Jobs {
		spec := models.ByName(wj.Model)
		if spec == nil {
			continue
		}
		gpus, batch := wj.UserGPUs, wj.UserBatch
		if cfg.UseTunedConfig {
			gpus, batch = wj.TunedGPUs, wj.TunedBatch
		}
		t := &replayTask{wj: wj, tr: &Trainer{
			Job:  fmt.Sprintf("job-%d", wj.ID),
			Spec: spec,
			// Each trainer owns its rng, exactly as a live agent
			// process would; draws happen only inside its own events,
			// so the global draw order is fixed by the kernel.
			Seed:     cfg.Seed + int64(wj.ID),
			UserGPUs: gpus, UserBatch: batch,
			Tenant: wj.Tenant, Deadline: wj.Deadline,
		}}
		if !adaptive {
			t.tr.FixedBatch = batch
		}
		r.tasks = append(r.tasks, t)
		r.byID[wj.ID] = t
	}
	return r, nil
}

func (r *replayRun) close() {
	if r.closer != nil {
		r.closer()
	}
}

// drive runs the event loop. When checkpointAt is non-nil, the loop stops
// at the first scheduling event with Time >= *checkpointAt — before
// executing that round — and returns its time; otherwise it runs to
// completion (all tasks done or MaxTime) and returns a negative time.
func (r *replayRun) drive(checkpointAt *float64) (cutSched float64, err error) {
	cfg := r.cfg
	cutSched = -1
	var runErr error
	eventsim.Drive(&r.q, eventsim.Virtual{}, 0, func(e eventsim.Event) bool {
		if e.Time > cfg.MaxTime {
			return false
		}
		if r.done >= len(r.tasks) {
			// Only reachable on a resume whose snapshot already held every
			// task complete; a fresh run stops at the completing event.
			return false
		}
		switch e.Kind {
		case kindSched:
			if checkpointAt != nil && e.Time >= *checkpointAt {
				cutSched = e.Time
				return false
			}
			if _, err := r.svc.ScheduleOnce(r.policy, e.Time); err != nil {
				runErr = err
				return false
			}
			r.q.Push(eventsim.Event{
				Time: e.Time + sim.SchedInterval, Class: eventsim.ClassCluster, Kind: kindSched,
			})

		case kindArrive:
			t := r.byID[e.Job]
			// Arrivals pop in submit-time order with ties in ascending
			// job-ID order — the same sequence the simulator presents —
			// and the request carries the trace's submit time, so
			// admission decisions are bit-identical across deployments.
			// A rejected job's trainer never comes up.
			gpus := t.tr.UserGPUs
			if !r.svc.AdmitJob(admit.Request{Job: e.Job, Tenant: t.wj.Tenant, Time: t.wj.Submit, GPUs: gpus}) {
				t.rejected = true
				r.done++
				return r.done < len(r.tasks)
			}
			if err := t.tr.begin(r.trans, e.Time); err != nil {
				runErr = err
				return false
			}
			r.q.Push(eventsim.Event{
				Time: e.Time, Class: eventsim.ClassJob, Job: e.Job, Kind: kindStep,
			})

		case kindStep:
			t := r.byID[e.Job]
			finished, err := t.tr.tick()
			if err != nil {
				runErr = err
				return false
			}
			if finished {
				t.finish = t.wj.Submit + t.tr.simNow
				r.done++
				return r.done < len(r.tasks)
			}
			r.q.Push(eventsim.Event{
				Time: e.Time + trainerTick, Class: eventsim.ClassJob, Job: e.Job, Kind: kindStep,
			})
		}
		return true
	})
	return cutSched, runErr
}

// result aggregates the run the way the simulator aggregates its own.
func (r *replayRun) result() sim.Result {
	outcomes := make([]sim.Outcome, len(r.tasks))
	for i, t := range r.tasks {
		// A trainer that never came up holds the zero job: no running time.
		outcomes[i] = sim.Outcome{Trace: t.wj, Finish: t.finish, Rejected: t.rejected, Job: &t.tr.job}
	}
	return sim.Summarize(outcomes, r.fe)
}

// seedFresh pushes the trace's arrival events and the first scheduling
// round at time zero.
func (r *replayRun) seedFresh() {
	for _, t := range r.tasks {
		r.q.Push(eventsim.Event{
			Time: t.wj.Submit, Class: eventsim.ClassJob, Job: t.wj.ID, Kind: kindArrive,
		})
	}
	r.q.Push(eventsim.Event{Time: 0, Class: eventsim.ClassCluster, Kind: kindSched})
}

// Replay runs the trace through the live-testbed control path on virtual
// time and returns its completion statistics.
func Replay(trace workload.Trace, policy sched.Policy, cfg ReplayConfig) (sim.Result, error) {
	cfg.defaults()
	r, err := newReplayRun(trace, policy, cfg)
	if err != nil {
		return sim.Result{}, err
	}
	defer r.close()
	r.seedFresh()
	if _, err := r.drive(nil); err != nil {
		return sim.Result{}, err
	}
	return r.result(), nil
}

// ReplayToCheckpoint runs the trace like Replay but stops at the first
// scheduling round due at or after checkpointAt — before executing it —
// and returns the frozen deployment. The policy must implement
// PolicyCheckpointer (sched.Pollux does). A trace that completes before
// checkpointAt is an error: there is no mid-trace state left to save.
func ReplayToCheckpoint(trace workload.Trace, policy sched.Policy, cfg ReplayConfig, checkpointAt float64) (*ReplayCheckpoint, error) {
	cp, ok := policy.(PolicyCheckpointer)
	if !ok {
		return nil, fmt.Errorf("cluster: policy %q does not support checkpointing", policy.Name())
	}
	cfg.defaults()
	r, err := newReplayRun(trace, policy, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.seedFresh()
	cut, err := r.drive(&checkpointAt)
	if err != nil {
		return nil, err
	}
	if cut < 0 {
		return nil, fmt.Errorf("cluster: replay finished before checkpoint time %.0fs", checkpointAt)
	}

	ck := &ReplayCheckpoint{
		Config:    cfg,
		Jobs:      len(trace.Jobs),
		NextSched: cut,
		Service:   r.svc.Snapshot(),
		Policy:    cp.Snapshot(),
	}
	for _, t := range r.tasks {
		ts := TaskSnapshot{Job: t.wj.ID}
		switch {
		case t.rejected:
			ts.Arrived, ts.Rejected = true, true
		case t.tr.transport != nil: // begin ran: the trainer is (or was) live
			ts.Arrived = true
			ts.Trainer = t.tr.Snapshot()
			if t.tr.Done() {
				ts.Finished = true
				ts.Finish = t.finish
			}
		}
		ck.Tasks = append(ck.Tasks, ts)
	}
	return ck, nil
}

// ResumeReplay continues a checkpointed replay to completion. It must be
// given the same trace, policy configuration, and ReplayConfig the
// checkpoint was taken under; any mismatch — a different cluster shape, a
// different trace, a policy without checkpoint support — fails loudly
// instead of silently starting fresh. The returned Result covers the
// whole run, pre- and post-checkpoint, and is bit-identical to the
// straight-through Replay of the same trace.
func ResumeReplay(trace workload.Trace, policy sched.Policy, cfg ReplayConfig, ck *ReplayCheckpoint) (sim.Result, error) {
	cp, ok := policy.(PolicyCheckpointer)
	if !ok {
		return sim.Result{}, fmt.Errorf("cluster: policy %q does not support checkpointing", policy.Name())
	}
	cfg.defaults()
	if !reflect.DeepEqual(cfg, ck.Config) {
		return sim.Result{}, fmt.Errorf("cluster: replay config %+v does not match checkpoint config %+v", cfg, ck.Config)
	}
	if len(trace.Jobs) != ck.Jobs {
		return sim.Result{}, fmt.Errorf("cluster: trace has %d jobs, checkpoint was taken with %d", len(trace.Jobs), ck.Jobs)
	}
	r, err := newReplayRun(trace, policy, cfg)
	if err != nil {
		return sim.Result{}, err
	}
	defer r.close()
	if len(ck.Tasks) != len(r.tasks) {
		return sim.Result{}, fmt.Errorf("cluster: checkpoint has %d tasks, trace builds %d", len(ck.Tasks), len(r.tasks))
	}
	if err := r.svc.RestoreSnapshot(ck.Service); err != nil {
		return sim.Result{}, err
	}
	if err := cp.Restore(ck.Policy); err != nil {
		return sim.Result{}, err
	}
	for i, ts := range ck.Tasks {
		t := r.tasks[i]
		if ts.Job != t.wj.ID {
			return sim.Result{}, fmt.Errorf("cluster: checkpoint task %d is job %d, trace has job %d", i, ts.Job, t.wj.ID)
		}
		switch {
		case !ts.Arrived:
			r.q.Push(eventsim.Event{
				Time: t.wj.Submit, Class: eventsim.ClassJob, Job: t.wj.ID, Kind: kindArrive,
			})
		case ts.Rejected:
			t.rejected = true
			r.done++
		default:
			if ts.Trainer == nil {
				return sim.Result{}, fmt.Errorf("cluster: checkpoint task %d arrived but has no trainer state", i)
			}
			if err := t.tr.restore(r.trans, ts.Trainer); err != nil {
				return sim.Result{}, err
			}
			if ts.Finished {
				t.finish = ts.Finish
				r.done++
				continue
			}
			// The trainer's pending step event is derivable: steps fire
			// every trainerTick from its arrival, so the next one is due
			// at Submit+SimNow.
			r.q.Push(eventsim.Event{
				Time: ts.Trainer.Submit + ts.Trainer.SimNow, Class: eventsim.ClassJob, Job: t.wj.ID, Kind: kindStep,
			})
		}
	}
	r.q.Push(eventsim.Event{Time: ck.NextSched, Class: eventsim.ClassCluster, Kind: kindSched})
	if _, err := r.drive(nil); err != nil {
		return sim.Result{}, err
	}
	return r.result(), nil
}
