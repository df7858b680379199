package cluster

import (
	"fmt"
	"net"
	"net/rpc"
	"slices"
	"sync"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/ga"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Report is what a PolluxAgent sends the scheduler at each reporting
// interval (Sec. 4.1: the fitted θsys and latest gradient statistics,
// plus the accounting the scheduler needs for weights and exploration).
// The fixed-configuration fields are consumed only by the baseline
// policies (Tiresias wants UserGPUs, Optimus+Oracle wants UserBatch and
// the RemainingIters oracle); Pollux ignores them.
type Report struct {
	Job            string
	Params         [7]float64 // θsys vector
	Phi            float64
	M0             int
	MaxBatchPerGPU int
	MaxBatchGlobal int
	GPUCap         int
	GPUTime        float64
	Submit         float64
	// UserGPUs and UserBatch are the job's fixed submission-time
	// configuration; RemainingIters is the oracle
	// iterations-to-completion at UserBatch (Sec. 5.2).
	UserGPUs       int
	UserBatch      int
	RemainingIters float64
	// Tenant and Deadline carry the job's multi-tenant identity and
	// absolute SLO deadline (0 = none) for the admit front end's priority
	// stage and per-tenant accounting.
	Tenant   string
	Deadline float64
	Done     bool
}

// Allocation is the scheduler's reply to a poll: the job's current
// per-node GPU assignment and a generation counter that increments on
// every change (so trainers can detect reallocation and checkpoint).
type Allocation struct {
	Row        []int
	Generation int
}

// job is one registered job's entry: its latest report, held as the
// scheduler input a round copies out (view.ID is the registration index),
// and its entry in the ledger. A report is stored in no other form;
// Snapshot converts back.
type job struct {
	view sched.JobView
	done bool
	p    *placement
}

// set stores a report in the entry as the scheduler reads it; the ID stays.
func (j *job) set(r *Report) {
	v := &j.view
	v.Submit, v.Tenant, v.Deadline = r.Submit, r.Tenant, r.Deadline
	v.Model = core.Model{
		Params:         core.ParamsFromVector(r.Params[:]),
		Phi:            r.Phi,
		M0:             r.M0,
		MaxBatchPerGPU: r.MaxBatchPerGPU,
		MaxBatchGlobal: r.MaxBatchGlobal,
	}
	v.GPUCap, v.GPUTime = r.GPUCap, r.GPUTime
	v.UserGPUs, v.UserBatch, v.RemainingIters = r.UserGPUs, r.UserBatch, r.RemainingIters
	v.MinGPUs = 0
	if r.UserBatch > 0 && r.MaxBatchPerGPU > 0 {
		v.MinGPUs = (r.UserBatch + r.MaxBatchPerGPU - 1) / r.MaxBatchPerGPU
	}
	j.done = r.Done
}

// report is the inverse of set: the job's latest report.
func (j *job) report() Report {
	v := &j.view
	r := Report{
		Job:            j.p.job,
		Phi:            v.Model.Phi,
		M0:             v.Model.M0,
		MaxBatchPerGPU: v.Model.MaxBatchPerGPU,
		MaxBatchGlobal: v.Model.MaxBatchGlobal,
		GPUCap:         v.GPUCap,
		GPUTime:        v.GPUTime,
		Submit:         v.Submit,
		UserGPUs:       v.UserGPUs,
		UserBatch:      v.UserBatch,
		RemainingIters: v.RemainingIters,
		Tenant:         v.Tenant,
		Deadline:       v.Deadline,
		Done:           j.done,
	}
	copy(r.Params[:], v.Model.Params.Vector())
	return r
}

// Service is the net/rpc-exposed scheduler endpoint. Its job registry
// (jobs, order, live, round) is guarded by state.mu, the ledger's lock.
type Service struct {
	state *State
	// jobs finds an entry by name: the one lookup a report pays. order is
	// the registration order. A job's position in it is its
	// scheduler-visible ID: assigned once and never reused, because Pollux
	// carries GA population rows and speedup tables across rounds keyed by
	// job ID, so IDs must not shift when earlier jobs finish.
	jobs  map[string]*job
	order []*job
	// live is the unfinished jobs in registration order, which is what a
	// round schedules: SubmitReport appends an arrival, Round drops the
	// entries that reported Done since the last one. Its first round
	// entries are the jobs of the scheduling round in flight, in row order
	// (set by Round, read by Commit; see runtime.Step).
	live  []*job
	round int

	// schedMu serializes scheduling rounds: Round and Commit communicate
	// through live and round, so overlapping ScheduleOnce calls must not
	// interleave (reports keep flowing under state.mu while a round runs).
	schedMu sync.Mutex

	// fe is the admit front end (nil = admit everything, snapshot order).
	// It is guarded by schedMu: admission decisions and scheduling rounds
	// serialize, so the decision log is a deterministic function of the
	// arrival order.
	fe *admit.FrontEnd
}

// NewService wraps cluster state in an RPC service.
func NewService(state *State) *Service {
	return &Service{state: state, jobs: make(map[string]*job)}
}

// SetFrontEnd installs the admit front end ahead of any traffic. The
// service shares one FrontEnd with its deployment (replay loop or live
// daemon) so admission decisions and scheduling both see it.
func (s *Service) SetFrontEnd(fe *admit.FrontEnd) {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	s.fe = fe
}

// FrontEnd returns the installed admit front end (nil when none).
func (s *Service) FrontEnd() *admit.FrontEnd {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	//pollux:aliasret-ok the FrontEnd handle is shared by design: SetFrontEnd installs it once before traffic and FrontEnd carries its own internal synchronization
	return s.fe
}

// AdmitJob runs one arrival through the admission stage. It holds the
// scheduling lock, so a decision never interleaves with a round in
// flight. Callers must present each job exactly once, in nondecreasing
// submit-time order, before the job's first report.
func (s *Service) AdmitJob(r admit.Request) bool {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	return s.fe.Arrive(r)
}

// SubmitReport receives an agent report. Reply is unused. Done is
// terminal: a report for a job that already reported Done (a late or
// duplicated delivery) is dropped, since no trainer is left to finish the
// job a second time.
func (s *Service) SubmitReport(r Report, _ *struct{}) error {
	if r.Job == "" {
		return fmt.Errorf("cluster: report without job name")
	}
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	j := s.jobs[r.Job]
	switch {
	case j == nil:
		j = &job{p: s.state.at(r.Job)}
		j.view.ID = len(s.order)
		s.jobs[r.Job] = j
		s.order = append(s.order, j)
		s.live = append(s.live, j)
	case j.done:
		return nil
	}
	j.set(&r)
	if r.Done {
		// A finished job gives its GPUs back: an all-zero row, whose new
		// generation tells a still-polling trainer.
		return s.state.install([]*placement{j.p}, ga.Matrix{s.state.zero})
	}
	return nil
}

// GetAllocation returns the job's current allocation.
func (s *Service) GetAllocation(job string, reply *Allocation) error {
	*reply = s.state.Allocation(job)
	return nil
}

// ScheduleOnce runs one scheduling round — snapshot the reported jobs,
// run the policy, validate, diff, commit — through the shared
// runtime.Step core, the same round the simulator executes. It returns
// the number of jobs scheduled.
func (s *Service) ScheduleOnce(policy sched.Policy, now float64) (int, error) {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	return runtime.Step(s, s.fe, policy, now)
}

// Round snapshots the scheduler inputs for runtime.Step: every reported,
// unfinished job's goodput function and accounting in registration order,
// plus the rows the ledger holds for them and its usage totals, all under
// one hold of the lock so no report or placement can change between two
// reads. It is one pass over the live list, which it compacts on the way:
// a JobView copy per job, because reports keep flowing into the entries
// while the policy reads the view, and a row header. view.Current is not a
// copy: each row is the ledger's own slice (the shared zero row for a job
// it holds nothing for), which stays valid outside the lock because
// installed rows are never written.
func (s *Service) Round(now float64) *sched.ClusterView {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	view := &sched.ClusterView{
		Now:      now,
		Capacity: slices.Clone(s.state.capacity),
		Usage:    slices.Clone(s.state.usage),
		Jobs:     make([]sched.JobView, 0, len(s.live)),
		Current:  make(ga.Matrix, 0, len(s.live)),
	}
	n := 0
	for _, j := range s.live {
		if j.done {
			continue
		}
		s.live[n] = j
		n++
		view.Jobs = append(view.Jobs, j.view)
		row := j.p.row
		if row == nil {
			row = s.state.zero
		}
		//pollux:aliasret-ok rows are immutable once installed: install replaces a job's slice and never writes one, so the view may read this row after the lock is released
		view.Current = append(view.Current, row)
	}
	s.live, s.round = s.live[:n], n
	return view
}

// Commit installs the validated allocation matrix for the last Round's
// jobs in the ledger, which rebinds the rows that changed and bumps their
// generations, so trainers detect the re-allocation and checkpoint. A
// job that reported Done while the policy was optimizing already gave
// its GPUs back in SubmitReport; its row is dropped here rather than
// rebound, which would leak a placement for a job that will never report
// again. The Done filter and the install happen under one hold of the
// lock (SubmitReport takes the same one), so no Done report can slip in
// between them.
func (s *Service) Commit(m ga.Matrix, changed []bool) error {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	if len(m) != s.round || len(changed) != s.round {
		return fmt.Errorf("cluster: %d rows and %d flags for a round of %d jobs", len(m), len(changed), s.round)
	}
	n := 0
	for _, c := range changed {
		if c {
			n++
		}
	}
	ps, rows := make([]*placement, 0, n), make(ga.Matrix, 0, n)
	for i, j := range s.live[:s.round] {
		if changed[i] && !j.done {
			ps, rows = append(ps, j.p), append(rows, m[i])
		}
	}
	return s.state.install(ps, rows)
}

// RunRounds drives scheduling rounds every sim.SchedInterval simulated
// seconds on the eventsim kernel until stop is closed. The first round
// fires at start (zero for a fresh daemon; a restored daemon passes the
// next round time its checkpoint recorded, so the cadence survives a
// restart). The clock paces the rounds: a Wall clock with a compression
// factor yields the live scheduler loop (pollux-sched, the live-cluster
// example), a Virtual clock runs rounds back to back. Round failures (a
// malformed policy result, say) are reported through onRound and the
// loop keeps serving, matching the resilience of the old hand-rolled
// daemon loops; onRound may be nil.
func (s *Service) RunRounds(policy sched.Policy, clock eventsim.Clock, start float64, stop <-chan struct{}, onRound func(now float64, scheduled int, err error)) {
	var q eventsim.Queue
	q.Push(eventsim.Event{Time: start, Class: eventsim.ClassCluster})
	eventsim.Drive(&q, clock, start, func(e eventsim.Event) bool {
		select {
		case <-stop:
			return false
		default:
		}
		n, err := s.ScheduleOnce(policy, e.Time)
		if onRound != nil {
			onRound(e.Time, n, err)
		}
		q.Push(eventsim.Event{Time: e.Time + sim.SchedInterval, Class: eventsim.ClassCluster})
		return true
	})
}

// Serve registers the service under the name "PolluxSched" and accepts
// RPC connections on the listener until it is closed.
func Serve(svc *Service, ln net.Listener) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("PolluxSched", svc); err != nil {
		return err
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go srv.ServeConn(conn)
	}
}

// Client is a typed RPC client for agents.
type Client struct {
	c *rpc.Client
}

// Dial connects to a scheduler endpoint.
func Dial(network, addr string) (*Client, error) {
	c, err := rpc.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// SubmitReport sends an agent report.
func (c *Client) SubmitReport(r Report) error {
	return c.c.Call("PolluxSched.SubmitReport", r, &struct{}{})
}

// GetAllocation polls the job's allocation.
func (c *Client) GetAllocation(job string) (Allocation, error) {
	var a Allocation
	err := c.c.Call("PolluxSched.GetAllocation", job, &a)
	return a, err
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.c.Close() }
