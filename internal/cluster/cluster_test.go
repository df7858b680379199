package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/admit"
	"repro/internal/eventsim"
	"repro/internal/ga"
	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/testutil"
)

// bind installs one job's row through the service's Commit, as a round
// that changes only that row would, registering the job first if the
// service has not heard of it.
func bind(svc *Service, job string, row []int) error {
	if svc.jobs[job] == nil {
		if err := svc.SubmitReport(Report{Job: job}, nil); err != nil {
			return err
		}
	}
	v := svc.Round(0)
	m, changed := slices.Clone(v.Current), make([]bool, len(v.Current))
	for i, jv := range v.Jobs {
		if jv.ID == svc.jobs[job].view.ID {
			m[i], changed[i] = row, true
		}
	}
	return svc.Commit(m, changed)
}

// allocOf polls the job's row whatever the generation, as GetAllocation's
// Have -1 asks.
func allocOf(svc *Service, job string) Allocation {
	var a Allocation
	svc.GetAllocation(AllocQuery{Job: job, Have: -1}, &a) //nolint:errcheck // a poll never fails
	return a
}

func usageOf(svc *Service) []int {
	svc.state.mu.Lock()
	defer svc.state.mu.Unlock()
	return slices.Clone(svc.state.ledger.Usage())
}

func TestAllocationIsCopy(t *testing.T) {
	svc := NewService(NewState([]int{4}))
	bind(svc, "a", []int{2})
	allocOf(svc, "a").Row[0] = 99
	if again := allocOf(svc, "a"); again.Row[0] != 2 {
		t.Error("Allocation leaked internal state")
	}
}

// TestAllocationPollCarriesOnlyAChangedRow: a poll at the job's generation
// gets that generation and no row; a poll at any other generation, -1
// included, gets a copy of the row. A job the ledger never held a row for
// is the all-zero row at generation 0, so a poll with Have 0 gets no row.
// Only an installed row moves a generation: not a refused install, and
// not another job's.
func TestAllocationPollCarriesOnlyAChangedRow(t *testing.T) {
	svc := NewService(NewState([]int{4, 4}))
	poll := func(job string, have int) Allocation {
		t.Helper()
		var a Allocation
		if err := svc.GetAllocation(AllocQuery{Job: job, Have: have}, &a); err != nil {
			t.Fatal(err)
		}
		return a
	}
	if a := poll("never", 0); a.Row != nil || a.Generation != 0 {
		t.Errorf("never-placed job polled at 0: %+v, want no row at generation 0", a)
	}
	if a := poll("never", -1); !slices.Equal(a.Row, []int{0, 0}) || a.Generation != 0 {
		t.Errorf("never-placed job polled at -1: %+v, want the zero row at generation 0", a)
	}
	if err := svc.SubmitReport(Report{Job: "b"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := bind(svc, "a", []int{2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := bind(svc, "a", []int{3, 0}); err != nil {
		t.Fatal(err)
	}
	if err := bind(svc, "a", []int{5, 0}); err == nil {
		t.Error("oversubscribing row installed")
	}
	if a := poll("b", -1); !slices.Equal(a.Row, []int{0, 0}) || a.Generation != 0 {
		t.Errorf("b, never placed, after a's installs: %+v, want the zero row at generation 0", a)
	}
	if a := poll("a", 2); a.Row != nil || a.Generation != 2 {
		t.Errorf("poll at the ledger's generation: %+v, want no row at generation 2", a)
	}
	for _, have := range []int{-1, 0, 1, 3} {
		a := poll("a", have)
		if !slices.Equal(a.Row, []int{3, 0}) || a.Generation != 2 {
			t.Errorf("poll at %d: %+v, want row [3 0] at generation 2", have, a)
			continue
		}
		a.Row[0] = 99 // a copy: the caller may write it
	}
	if a := poll("a", -1); a.Row[0] != 3 {
		t.Errorf("writing a poll's row reached the ledger: %v", a.Row)
	}
}

func TestServiceReportAllocateRoundTrip(t *testing.T) {
	state := NewState([]int{4, 4})
	svc := NewService(state)

	spec := models.ByName("resnet18")
	var vec [7]float64
	copy(vec[:], spec.Truth.Vector())
	rep := Report{
		Job: "job-0", Params: vec, Phi: spec.Phi(0.5),
		M0: spec.M0, MaxBatchPerGPU: spec.MaxBatchPerGPU,
		MaxBatchGlobal: spec.MaxBatchGlobal, GPUCap: 8,
	}
	if err := svc.SubmitReport(rep, &struct{}{}); err != nil {
		t.Fatal(err)
	}

	p := sched.NewPollux(sched.PolluxOptions{Population: 20, Generations: 10}, 1)
	n, err := svc.ScheduleOnce(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("scheduled %d jobs, want 1", n)
	}
	var alloc Allocation
	if err := svc.GetAllocation(AllocQuery{Job: "job-0", Have: -1}, &alloc); err != nil {
		t.Fatal(err)
	}
	pl := sched.PlacementOf(alloc.Row)
	if pl.GPUs == 0 {
		t.Error("job not allocated any GPUs")
	}
	if pl.GPUs > 8 {
		t.Errorf("allocation %d exceeds reported GPU cap 8", pl.GPUs)
	}
	if alloc.Generation == 0 {
		t.Error("generation not bumped on allocation")
	}

	// Done report evicts.
	rep.Done = true
	if err := svc.SubmitReport(rep, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	done := allocOf(svc, "job-0")
	if sched.PlacementOf(done.Row).GPUs != 0 {
		t.Error("done job still placed")
	}
	if done.Generation != alloc.Generation+1 {
		t.Errorf("generation %d after Done, want %d", done.Generation, alloc.Generation+1)
	}
}

func TestServiceRejectsAnonymousReport(t *testing.T) {
	svc := NewService(NewState([]int{4}))
	if err := svc.SubmitReport(Report{}, &struct{}{}); err == nil {
		t.Error("empty job name accepted")
	}
}

func TestRPCOverRealSocket(t *testing.T) {
	state := NewState([]int{4, 4})
	svc := NewService(state)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(svc, ln)

	client, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	spec := models.ByName("neumf")
	var vec [7]float64
	copy(vec[:], spec.Truth.Vector())
	err = client.SubmitReport(Report{
		Job: "rpc-job", Params: vec, Phi: spec.Phi(0.2),
		M0: spec.M0, MaxBatchPerGPU: spec.MaxBatchPerGPU, GPUCap: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := sched.NewPollux(sched.PolluxOptions{Population: 10, Generations: 5}, 2)
	if _, err := svc.ScheduleOnce(p, 0); err != nil {
		t.Fatal(err)
	}
	alloc, err := client.GetAllocation("rpc-job")
	if err != nil {
		t.Fatal(err)
	}
	if sched.PlacementOf(alloc.Row).GPUs == 0 {
		t.Error("no GPUs allocated over RPC")
	}
	// A poll at the generation the caller holds comes back without a row.
	again, err := client.PollAllocation("rpc-job", alloc.Generation)
	if err != nil {
		t.Fatal(err)
	}
	if again.Row != nil || again.Generation != alloc.Generation {
		t.Errorf("unchanged poll over RPC: %+v, want no row at generation %d", again, alloc.Generation)
	}
}

func TestTrainerRunsToCompletionOverRPC(t *testing.T) {
	state := NewState([]int{4, 4})
	svc := NewService(state)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(svc, ln)

	// Tiny job: neumf with shrunken work so the test runs in seconds.
	// The trainer runs unpaced on virtual time — the old version of this
	// test burned wall clock under a compression factor and its duration
	// varied with host load.
	spec := *models.ByName("neumf")
	spec.Epochs = 0.5
	tr := &Trainer{
		Job: "live-0", Spec: &spec,
		DisableCompression: true, Seed: 3,
	}

	// Scheduler loop: rounds back to back on the virtual clock.
	stop := make(chan struct{})
	go svc.RunRounds(
		sched.NewPollux(sched.PolluxOptions{Population: 10, Generations: 5}, 3),
		eventsim.Virtual{}, 0, stop, nil)
	defer close(stop)

	simSecs, err := tr.Run("tcp", ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Done() {
		t.Error("trainer not done")
	}
	if simSecs <= 0 {
		t.Errorf("simulated duration = %v", simSecs)
	}
	if tr.Progress() < 1 {
		t.Errorf("progress = %v, want >= 1", tr.Progress())
	}
}

func TestTrainerCompressionValidation(t *testing.T) {
	spec := models.ByName("neumf")
	// An explicit (or forgotten) zero is an error, not a silent default.
	tr := &Trainer{Job: "z", Spec: spec}
	if _, err := tr.Run("tcp", "127.0.0.1:1", 0); err == nil {
		t.Error("zero Compression accepted")
	}
	tr = &Trainer{Job: "n", Spec: spec, Compression: -5}
	if _, err := tr.Run("tcp", "127.0.0.1:1", 0); err == nil {
		t.Error("negative Compression accepted")
	}
	// Setting both knobs is contradictory.
	tr = &Trainer{Job: "b", Spec: spec, Compression: 100, DisableCompression: true}
	if _, err := tr.Run("tcp", "127.0.0.1:1", 0); err == nil {
		t.Error("Compression together with DisableCompression accepted")
	}
}

// journaling is the policy handed to the service in
// TestPublishedRowsAreNeverWritten: it journals every row that crosses
// Schedule, in either direction, and keeps the last view and result.
type journaling struct {
	sched.Policy
	journal *testutil.RowJournal
	view    *sched.ClusterView
	m       ga.Matrix
}

func (p *journaling) Schedule(v *sched.ClusterView) ga.Matrix {
	p.journal.See(v.Current)
	p.view, p.m = v, p.Policy.Schedule(v)
	p.journal.See(p.m)
	return p.m
}

// TestPublishedRowsAreNeverWritten pins the ownership rule of allocation
// rows on the ledger's side, over steady service rounds with a refit, a
// Done report and an arrival before each and a checkpoint restored into a
// fresh service and scheduler half way: a row that has been in the ledger,
// in a round's view or in a Schedule result is never written afterwards.
// What the ledger shares it shares by identity — a view's row is the
// ledger's slice, the committed row is the policy's slice, every job
// without GPUs reads the one zero row — and what leaves through
// GetAllocation, or as the view's Capacity and Usage, is a copy.
// internal/sched has the same test over the scheduler's kept state.
func TestPublishedRowsAreNeverWritten(t *testing.T) {
	const nodes, jobs, rounds, restoreAt = 16, 96, 20, 10
	l := newSteadyLoad(t, nodes, jobs, 5)
	var journal testutil.RowJournal
	policy := &journaling{Policy: l.pollux, journal: &journal}
	l.policy = policy
	ledgerRow := func(name string) []int { // nil until the first install
		l.svc.state.mu.Lock()
		defer l.svc.state.mu.Unlock()
		if j := l.svc.jobs[name]; j != nil && j.gen > 0 {
			return l.svc.state.ledger.Row(j.view.ID)
		}
		return nil
	}
	for r := 0; r < rounds; r++ {
		if r == restoreAt {
			sb, _ := json.Marshal(l.svc.Snapshot())
			pb, _ := json.Marshal(l.pollux.Snapshot())
			var ss ServiceSnapshot
			var ps sched.PolluxSnapshot
			if err := json.Unmarshal(sb, &ss); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(pb, &ps); err != nil {
				t.Fatal(err)
			}
			l.svc = NewService(NewState(ss.Capacity))
			if err := l.svc.RestoreSnapshot(&ss); err != nil {
				t.Fatal(err)
			}
			for i := range ss.Jobs { // the snapshot stays the caller's
				for n := range ss.Jobs[i].Row {
					ss.Jobs[i].Row[n] = -1
				}
			}
			l.pollux = sched.NewPollux(megaOptions, 0)
			if err := l.pollux.Restore(&ps); err != nil {
				t.Fatal(err)
			}
			policy.Policy = l.pollux
		}
		done := l.churn(t)
		if row := ledgerRow(done); !ga.SameRow(row, l.svc.state.ledger.Zero()) {
			t.Errorf("round %d: finished job %s holds %v, not the ledger's zero row", r, done, row)
		}
		before := make(ga.Matrix, len(l.live))
		for i, rep := range l.live {
			before[i] = ledgerRow(rep.Job)
		}
		l.schedule(t)
		for i, rep := range l.live { // live is the round's job order
			switch {
			case before[i] == nil && !ga.SameRow(policy.view.Current[i], l.svc.state.ledger.Zero()):
				t.Errorf("round %d: arrival %s was shown %v, not the ledger's zero row", r, rep.Job, policy.view.Current[i])
			case before[i] != nil && !ga.SameRow(policy.view.Current[i], before[i]):
				t.Errorf("round %d: %s was shown a copy of its ledger row", r, rep.Job)
			}
			if row := ledgerRow(rep.Job); row != nil && !ga.SameRow(row, policy.m[i]) {
				t.Errorf("round %d: the ledger holds a copy of the row returned for %s", r, rep.Job)
			}
		}
		journal.See(before)
		l.svc.state.mu.Lock()
		for _, j := range l.svc.order {
			journal.See([][]int{l.svc.state.ledger.Row(j.view.ID)})
		}
		l.svc.state.mu.Unlock()
		journal.Check(t, fmt.Sprintf("round %d", r))
	}
	if journal.Len() < 2*rounds {
		t.Errorf("only %d rows journaled over %d rounds", journal.Len(), rounds)
	}

	// The copies: a trainer and a policy may write what they were given.
	name := l.live[0].Job
	want := allocOf(l.svc, name)
	view := l.svc.Round(l.now)
	got := allocOf(l.svc, name)
	for n := range got.Row {
		got.Row[n], view.Capacity[n], view.Usage[n] = 99, 99, 99
	}
	if a := allocOf(l.svc, name); !slices.Equal(a.Row, want.Row) {
		t.Errorf("row = %v after writing to GetAllocation's reply, want %v", a.Row, want.Row)
	}
	if again := l.svc.Round(l.now); again.Capacity[0] != 4 || !slices.Equal(again.Usage, usageOf(l.svc)) || slices.Contains(again.Usage, 99) {
		t.Errorf("Round after writing to the view's copies: capacity %v usage %v", again.Capacity, again.Usage)
	}
}

// TestServiceStatusCounts: every registered job is in exactly one of
// Running, Pending and Done, and GPUsUsed is what the running jobs hold,
// before a round, after it and after a Done report.
func TestServiceStatusCounts(t *testing.T) {
	svc := NewService(NewState([]int{4, 4}))
	names := []string{"a", "b", "c", "d"}
	for _, name := range names {
		// Four GPUs each: two fit, two queue.
		if err := svc.SubmitReport(Report{Job: name, UserGPUs: 4}, nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, running, pending, done int) {
		t.Helper()
		st := svc.Status()
		if st.Jobs != len(names) || st.Running+st.Pending+st.Done != st.Jobs {
			t.Errorf("%s: %d running + %d pending + %d done != %d jobs", when, st.Running, st.Pending, st.Done, st.Jobs)
		}
		if st.Running != running || st.Pending != pending || st.Done != done {
			t.Errorf("%s: running/pending/done = %d/%d/%d, want %d/%d/%d", when, st.Running, st.Pending, st.Done, running, pending, done)
		}
		held, usage := 0, 0
		for _, name := range names {
			var a Allocation
			svc.GetAllocation(AllocQuery{Job: name, Have: -1}, &a)
			held += sched.PlacementOf(a.Row).GPUs
		}
		for _, u := range st.Usage {
			usage += u
		}
		if st.GPUsUsed != held || usage != held || st.GPUsTotal != 8 || st.Nodes != 2 {
			t.Errorf("%s: GPUsUsed %d, usage %v, rows hold %d of %d on %d nodes", when, st.GPUsUsed, st.Usage, held, st.GPUsTotal, st.Nodes)
		}
	}
	check("before any round", 0, 4, 0)
	if _, err := svc.ScheduleOnce(sched.NewTiresias(), 0); err != nil {
		t.Fatal(err)
	}
	check("after a round", 2, 2, 0)
	if err := svc.SubmitReport(Report{Job: "a", Done: true}, nil); err != nil {
		t.Fatal(err)
	}
	check("after a Done report", 1, 2, 1)
	if _, err := svc.ScheduleOnce(sched.NewTiresias(), 60); err != nil {
		t.Fatal(err)
	}
	check("after the next round", 2, 1, 1)
}

// finishesMidRound reports a job Done after the wrapped policy has
// placed it and before runtime.Step commits the result.
type finishesMidRound struct {
	sched.Policy
	svc *Service
	job string
}

func (p finishesMidRound) Schedule(v *sched.ClusterView) ga.Matrix {
	m := p.Policy.Schedule(v)
	p.svc.SubmitReport(Report{Job: p.job, Done: true}, nil)
	return m
}

// TestDoneIsTerminal: a report that arrives for a job after its Done
// report (a late or duplicated delivery) is dropped, so the job is in no
// later view, its row stays the zero row its Done report installed, the
// usage totals are what the other jobs hold and its generation moved once.
func TestDoneIsTerminal(t *testing.T) {
	svc := NewService(NewState([]int{4, 4}))
	submit := func(r Report) {
		t.Helper()
		if err := svc.SubmitReport(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"a", "b", "c"} {
		submit(Report{Job: name, UserGPUs: 2})
	}
	var journal testutil.RowJournal
	policy := &journaling{Policy: sched.NewTiresias(), journal: &journal}
	step := func(now float64, want int) {
		t.Helper()
		if n, err := runtime.Step(svc, nil, policy, now); err != nil || n != want {
			t.Fatalf("round at t=%.0f scheduled %d jobs, want %d: %v", now, n, want, err)
		}
	}
	step(0, 3)
	placed := allocOf(svc, "b")
	if sched.PlacementOf(placed.Row).GPUs != 2 {
		t.Fatalf("b was placed as %+v", placed)
	}
	submit(Report{Job: "b", Done: true})
	submit(Report{Job: "b", UserGPUs: 2}) // sent before the Done report, delivered after it
	for _, now := range []float64{60, 120} {
		step(now, 2)
		for _, j := range policy.view.Jobs {
			if j.ID == 1 {
				t.Errorf("round at t=%.0f schedules the finished job", now)
			}
		}
	}
	if a := allocOf(svc, "b"); sched.PlacementOf(a.Row).GPUs != 0 || a.Generation != placed.Generation+1 {
		t.Errorf("finished job holds %+v, want no GPUs at generation %d", a, placed.Generation+1)
	}
	others := make([]int, 2)
	for _, name := range []string{"a", "c"} {
		for n, g := range allocOf(svc, name).Row {
			others[n] += g
		}
	}
	if u := usageOf(svc); !slices.Equal(u, others) {
		t.Errorf("usage = %v, the other jobs hold %v", u, others)
	}
	if st := svc.Status(); st.Done != 1 || st.Running != 2 || st.GPUsUsed != 4 {
		t.Errorf("status: %+v", st)
	}
	if snap := svc.Snapshot(); !snap.Jobs[1].Report.Done || !ga.SameRow(svc.state.ledger.Row(svc.jobs["b"].view.ID), svc.state.ledger.Zero()) {
		t.Errorf("the stale report replaced the Done one: %+v", snap.Jobs[1])
	}
}

// TestCommitDropsJobDoneMidRound: a job that reports Done while the
// policy is optimizing keeps the all-zero row its report installed;
// Commit does not rebind the GPUs the round had given it.
func TestCommitDropsJobDoneMidRound(t *testing.T) {
	svc := NewService(NewState([]int{4}))
	for _, name := range []string{"a", "b"} {
		if err := svc.SubmitReport(Report{Job: name, UserGPUs: 2}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.ScheduleOnce(finishesMidRound{sched.NewTiresias(), svc, "a"}, 0); err != nil {
		t.Fatal(err)
	}
	if a := allocOf(svc, "a"); a.Row[0] != 0 || a.Generation != 1 {
		t.Errorf("job done mid-round holds %+v, want no GPUs at generation 1", a)
	}
	if st := svc.Status(); st.GPUsUsed != 2 || st.Running != 1 || st.Done != 1 {
		t.Errorf("status after the round: %+v", st)
	}
}

// TestServiceConcurrentReadersDuringRounds runs Done reports, allocation
// polls and status reads against scheduling rounds (under -race in CI).
// At every instant usage stays within capacity and a Done job holds no
// row; a Done report that lands while the policy is optimizing must not
// be rebound by that round's Commit.
func TestServiceConcurrentReadersDuringRounds(t *testing.T) {
	capacity := []int{4, 4, 4, 4}
	svc := NewService(NewState(capacity))
	const jobs = 48
	name := func(i int) string { return fmt.Sprintf("job-%02d", i) }
	for i := 0; i < jobs; i++ {
		if err := svc.SubmitReport(Report{Job: name(i), UserGPUs: 1 + i%4}, nil); err != nil {
			t.Fatal(err)
		}
	}
	invariants := func() {
		svc.state.mu.Lock()
		defer svc.state.mu.Unlock()
		l := svc.state.ledger
		for _, j := range svc.order {
			if held := sched.PlacementOf(l.Row(j.view.ID)).GPUs; j.done && held != 0 {
				t.Errorf("done job %s holds %d GPUs", j.name, held)
			}
		}
		if err := testutil.CheckLedger(l.Capacity(), l.Usage(), l.Row, len(svc.order)); err != nil {
			t.Error(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // trainers finishing, first to last
		defer wg.Done()
		for i := 0; i < jobs; i++ {
			if err := svc.SubmitReport(Report{Job: name(i), Done: true}, nil); err != nil {
				t.Error(err)
			}
			invariants()
		}
	}()
	go func() { // trainers polling
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var a Allocation
			svc.GetAllocation(AllocQuery{Job: name(i % jobs), Have: -1}, &a)
			if len(a.Row) != len(capacity) {
				t.Errorf("allocation row has %d nodes", len(a.Row))
			}
		}
	}()
	go func() { // the status endpoint
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := svc.Status()
			if st.Running+st.Pending+st.Done != st.Jobs || st.GPUsUsed > st.GPUsTotal {
				t.Errorf("status %+v does not add up", st)
			}
		}
	}()
	for now := 0.0; svc.Status().Done < jobs; now += 60 {
		if _, err := svc.ScheduleOnce(sched.NewTiresias(), now); err != nil {
			t.Error(err)
		}
		invariants()
	}
	close(stop)
	wg.Wait()
	invariants()
	if st := svc.Status(); st.GPUsUsed != 0 || st.Done != jobs {
		t.Errorf("after every job finished: %+v", st)
	}
}

// firstGetsAGPU is the policy of TestServiceRefillsOneView's front-end
// round: it records the job order it is shown and gives the job it is
// shown first one GPU on node 0, leaving every other row as it is.
type firstGetsAGPU struct {
	shown []sched.JobView
}

func (p *firstGetsAGPU) Name() string          { return "first-gets-a-gpu" }
func (p *firstGetsAGPU) AdaptsBatchSize() bool { return false }
func (p *firstGetsAGPU) ReadsModel() bool      { return false }

func (p *firstGetsAGPU) Schedule(v *sched.ClusterView) ga.Matrix {
	p.shown = v.Jobs
	m := slices.Clone(v.Current)
	m[0] = make([]int, len(v.Capacity))
	m[0][0] = 1
	return m
}

// TestServiceRefillsOneView: Service.Round refills one view and its
// buffers rather than building a view per round. Two consecutive rounds
// return the same view over the same backing arrays; a report that
// arrives between Round and Commit changes the job's entry but not the
// view, whose entries are copies; and a front end that permutes the view
// for the policy swaps in slices of its own, so the next round still sees
// every job, in registration order, with the row the ledger holds for it.
// A reporter re-reports the other jobs throughout, so that under -race the
// view's reads outside the ledger's lock meet the entries' writes under it.
func TestServiceRefillsOneView(t *testing.T) {
	const nodes, jobs = 4, 12
	svc := NewService(NewState([]int{4, 4, 4, 4}))
	reports := make([]Report, jobs)
	for i := range reports {
		// Later jobs are due sooner, so the SLO stage reverses the view.
		reports[i] = Report{Job: fmt.Sprintf("job-%02d", i), Phi: 1, GPUCap: 8, Deadline: float64(1000 - 10*i)}
		if err := svc.SubmitReport(reports[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			r := reports[1+n%(jobs-1)] // every job but job-00
			r.GPUTime = float64(n)
			if err := svc.SubmitReport(r, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	v := svc.Round(0)
	if len(v.Jobs) != jobs || len(v.Current) != jobs || len(v.Capacity) != nodes || len(v.Usage) != nodes {
		t.Fatalf("round of %d jobs: %d jobs, %d rows, %d capacities, %d usage totals", jobs, len(v.Jobs), len(v.Current), len(v.Capacity), len(v.Usage))
	}
	arrays := []any{&v.Jobs[0], &v.Current[0], &v.Capacity[0], &v.Usage[0]}
	shown := slices.Clone(v.Jobs)
	refit := reports[0]
	refit.Phi = 2
	if err := svc.SubmitReport(refit, nil); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(v.Jobs, shown) {
		t.Error("a report between Round and Commit changed the view")
	}
	if err := svc.Commit(v.Current, make([]bool, jobs)); err != nil {
		t.Fatal(err)
	}

	again := svc.Round(60)
	if again != v {
		t.Error("the next Round returned another view")
	}
	for i, a := range []any{&again.Jobs[0], &again.Current[0], &again.Capacity[0], &again.Usage[0]} {
		if a != arrays[i] {
			t.Errorf("the next Round's %s is on another array", []string{"Jobs", "Current", "Capacity", "Usage"}[i])
		}
	}
	if phi := again.Jobs[0].Model.Phi; phi != 2 {
		t.Errorf("the next Round shows job-00 at phi %v, want the refit's 2", phi)
	}
	if err := svc.Commit(again.Current, make([]bool, jobs)); err != nil {
		t.Fatal(err)
	}

	fe, err := admit.New(&admit.Options{Priority: admit.PrioritySLO})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetFrontEnd(fe)
	policy := &firstGetsAGPU{}
	if n, err := svc.ScheduleOnce(policy, 120); err != nil || n != jobs {
		t.Fatalf("front-end round: scheduled %d of %d jobs: %v", n, jobs, err)
	}
	for i, j := range policy.shown {
		if j.ID != jobs-1-i {
			t.Fatalf("the policy was shown job %d at %d, want the SLO order %d", j.ID, i, jobs-1-i)
		}
	}
	if &policy.shown[0] == arrays[0] {
		t.Error("the front end permuted the service's own Jobs buffer")
	}
	after := svc.Round(180)
	if &after.Jobs[0] != arrays[0] {
		t.Error("the round after the front end's is on another Jobs array")
	}
	for i, j := range after.Jobs {
		want := make([]int, nodes)
		if i == jobs-1 {
			want[0] = 1 // the job the SLO stage put first
		}
		if j.ID != i || !slices.Equal(after.Current[i], want) {
			t.Errorf("after the front-end round, position %d shows job %d with %v, want job %d with %v", i, j.ID, after.Current[i], i, want)
		}
	}
	if !slices.Equal(after.Usage, []int{1, 0, 0, 0}) {
		t.Errorf("usage after the front-end round = %v, want [1 0 0 0]", after.Usage)
	}
}
