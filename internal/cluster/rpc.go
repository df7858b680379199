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

// AllocQuery is an allocation poll: the job and the generation of the row
// the caller already holds (0 for none yet, -1 to ask for the row
// whatever the generation).
type AllocQuery struct {
	Job  string
	Have int
}

// Allocation is the scheduler's reply to a poll: a generation counter that
// increments on every change of the job's per-node GPU assignment (so
// trainers can detect reallocation and checkpoint), and that assignment
// when it is not the one the poll said it held; Row is nil otherwise.
type Allocation struct {
	Row        []int
	Generation int
}

// job is one registered job's entry: its name, its latest report, held as
// the scheduler input a round copies out (view.ID is the registration
// index and the job's ledger slot), and the generation of its row, which
// counts the row's installs so a polling trainer detects a re-allocation.
// A report is stored in no other form; Snapshot converts back.
type job struct {
	name string
	view sched.JobView
	done bool
	gen  int
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
		Job:            j.name,
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
	// slots and rows are the Install that Commit makes, kept between
	// rounds.
	slots []int
	rows  ga.Matrix

	// view is the one snapshot Round refills, from the buffers below, as
	// sim.Cluster.Round does: a front end swaps slices of its own into the
	// view it is handed (see runtime.Backend), so the buffers are kept here
	// and the view is never read back. Round writes them under state.mu and
	// the policy reads them outside it, until the next Round.
	view               sched.ClusterView
	viewJobs           []sched.JobView
	viewRows           ga.Matrix
	viewCap, viewUsage []int

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
		j = &job{name: r.Job}
		j.view.ID = s.state.ledger.Add()
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
		s.state.ledger.Install([]int{j.view.ID}, ga.Matrix{s.state.ledger.Zero()}) //nolint:errcheck // a release always fits
		j.gen++
	}
	return nil
}

// GetAllocation answers an allocation poll: the job's current generation,
// with a copy of its row only when that is not the generation q.Have. A
// job never installed, or never heard of, is all zeros at generation 0.
func (s *Service) GetAllocation(q AllocQuery, reply *Allocation) error {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	*reply = Allocation{}
	row := s.state.ledger.Zero()
	if j := s.jobs[q.Job]; j != nil {
		row, reply.Generation = s.state.ledger.Row(j.view.ID), j.gen
	}
	if q.Have != reply.Generation {
		reply.Row = slices.Clone(row)
	}
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
// reads. It is one pass over the live list, which it compacts on the way,
// and it refills the one view the service keeps, so a steady round
// allocates nothing here: a JobView copy per job into the service's own
// buffer, because reports keep flowing into the entries while the policy
// reads the view, and a row header. view.Current is not a copy: each row
// is the ledger's own slice (the shared zero row for a job it holds
// nothing for), which stays valid outside the lock because installed rows
// are never written. Capacity and Usage are copies too, so a policy that
// writes them changes neither the ledger nor the next view.
func (s *Service) Round(now float64) *sched.ClusterView {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	jobs, rows := s.viewJobs[:0], s.viewRows[:0]
	n := 0
	for _, j := range s.live {
		if j.done {
			continue
		}
		s.live[n] = j
		n++
		jobs = append(jobs, j.view)
		rows = append(rows, s.state.ledger.Row(j.view.ID))
	}
	s.live, s.round = s.live[:n], n
	s.viewJobs, s.viewRows = jobs, rows
	s.viewCap = append(s.viewCap[:0], s.state.ledger.Capacity()...)
	s.viewUsage = append(s.viewUsage[:0], s.state.ledger.Usage()...)
	s.view = sched.ClusterView{Now: now, Capacity: s.viewCap, Usage: s.viewUsage, Jobs: jobs, Current: rows}
	return &s.view
}

// Commit installs the rows of the validated allocation matrix that
// changed for the last Round's jobs in the ledger and then bumps their
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
	slots, rows := s.slots[:0], s.rows[:0]
	for i, j := range s.live[:s.round] {
		if changed[i] && !j.done {
			slots, rows = append(slots, j.view.ID), append(rows, m[i])
		}
	}
	s.slots, s.rows = slots, rows
	if err := s.state.ledger.Install(slots, rows); err != nil {
		return err
	}
	for _, slot := range slots {
		s.order[slot].gen++
	}
	return nil
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

// PollAllocation polls the job's allocation; the reply carries a row only
// when the job's generation is not have.
func (c *Client) PollAllocation(job string, have int) (Allocation, error) {
	var a Allocation
	err := c.c.Call("PolluxSched.GetAllocation", AllocQuery{Job: job, Have: have}, &a)
	return a, err
}

// GetAllocation fetches the job's allocation, row included.
func (c *Client) GetAllocation(job string) (Allocation, error) {
	return c.PollAllocation(job, -1)
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.c.Close() }
