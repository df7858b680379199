package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/ga"
	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/testutil"
)

// install calls the ledger's install under its lock, as Commit does, for
// the named jobs flagged in changed (all of them when it is nil).
func install(s *State, jobs []string, m ga.Matrix, changed []bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(jobs) != len(m) {
		return fmt.Errorf("%d jobs but %d rows", len(jobs), len(m))
	}
	var ps []*placement
	var rows ga.Matrix
	for i, job := range jobs {
		if changed == nil || changed[i] {
			ps, rows = append(ps, s.at(job)), append(rows, m[i])
		}
	}
	return s.install(ps, rows)
}

// bind installs one job's row.
func bind(s *State, job string, row []int) error {
	return install(s, []string{job}, ga.Matrix{row}, nil)
}

func usageOf(s *State) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.usage)
}

func TestLedgerInstallReplacesAndReleases(t *testing.T) {
	s := NewState([]int{4, 4})
	if err := bind(s, "a", []int{2, 0}); err != nil {
		t.Fatal(err)
	}
	if err := bind(s, "b", []int{2, 2}); err != nil {
		t.Fatal(err)
	}
	if u := usageOf(s); u[0] != 4 || u[1] != 2 {
		t.Errorf("usage = %v, want [4 2]", u)
	}
	// Over capacity on node 0, and refused whole: c gets no entry.
	if err := bind(s, "c", []int{1, 1}); err == nil {
		t.Error("oversubscription not rejected")
	}
	if a := s.Allocation("c"); a.Generation != 0 || a.Row[1] != 0 {
		t.Errorf("refused install left %+v behind", a)
	}
	// Rebinding a replaces the old row, not adds to it.
	if err := bind(s, "a", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if u := usageOf(s); u[0] != 2 || u[1] != 3 {
		t.Errorf("usage after rebind = %v, want [2 3]", u)
	}
	// An all-zero row gives the GPUs back and still counts as a change.
	if err := bind(s, "a", []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	if u := usageOf(s); u[0] != 2 || u[1] != 2 {
		t.Errorf("usage after release = %v, want [2 2]", u)
	}
	if a := s.Allocation("a"); a.Generation != 3 {
		t.Errorf("generation = %d after three installs, want 3", a.Generation)
	}
}

func TestLedgerRejectsMalformedRows(t *testing.T) {
	s := NewState([]int{4})
	if err := bind(s, "a", []int{1, 1}); err == nil {
		t.Error("wrong-shape allocation accepted")
	}
	if err := bind(s, "a", []int{-1}); err == nil {
		t.Error("negative allocation accepted")
	}
}

func TestAllocationIsCopy(t *testing.T) {
	s := NewState([]int{4})
	bind(s, "a", []int{2})
	s.Allocation("a").Row[0] = 99
	if again := s.Allocation("a"); again.Row[0] != 2 {
		t.Error("Allocation leaked internal state")
	}
}

func TestInstallValidatesAgainstWholeLedger(t *testing.T) {
	s := NewState([]int{4, 4})
	m := ga.Matrix{{3, 0}, {3, 0}} // node 0 oversubscribed in aggregate
	if err := install(s, []string{"a", "b"}, m, nil); err == nil {
		t.Error("aggregate oversubscription accepted")
	}
	ok := ga.Matrix{{3, 0}, {1, 2}}
	if err := install(s, []string{"a", "b"}, ok, nil); err != nil {
		t.Fatal(err)
	}
	// A job outside the matrix holds node 1's last two GPUs: a matrix
	// that fits on its own but not beside that row is refused.
	if err := bind(s, "outside", []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := install(s, []string{"a", "b"}, ga.Matrix{{3, 0}, {1, 3}}, nil); err == nil {
		t.Error("matrix oversubscribing a node used by a job outside it accepted")
	}
	if u := usageOf(s); u[0] != 4 || u[1] != 4 {
		t.Errorf("usage = %v after a refused install, want [4 4]", u)
	}
	// Only flagged rows are rebound and only their generations advance.
	if err := install(s, []string{"a", "b"}, ga.Matrix{{9, 9}, {0, 2}}, []bool{false, true}); err != nil {
		t.Fatal(err)
	}
	if a, b := s.Allocation("a"), s.Allocation("b"); a.Row[0] != 3 || a.Generation != 1 || b.Row[0] != 0 || b.Generation != 2 {
		t.Errorf("after a partial install a = %+v, b = %+v", a, b)
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
	if err := svc.GetAllocation("job-0", &alloc); err != nil {
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
	done := state.Allocation("job-0")
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
	ledgerRow := func(name string) []int {
		l.svc.state.mu.Lock()
		defer l.svc.state.mu.Unlock()
		if p := l.svc.state.rows[name]; p != nil {
			return p.row
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
		if row := ledgerRow(done); !ga.SameRow(row, l.svc.state.zero) {
			t.Errorf("round %d: finished job %s holds %v, not the ledger's zero row", r, done, row)
		}
		before := make(ga.Matrix, len(l.live))
		for i, rep := range l.live {
			before[i] = ledgerRow(rep.Job)
		}
		l.schedule(t)
		for i, rep := range l.live { // live is the round's job order
			switch {
			case before[i] == nil && !ga.SameRow(policy.view.Current[i], l.svc.state.zero):
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
		for _, p := range l.svc.state.rows {
			journal.See([][]int{p.row})
		}
		l.svc.state.mu.Unlock()
		journal.Check(t, fmt.Sprintf("round %d", r))
	}
	if journal.Len() < 2*rounds {
		t.Errorf("only %d rows journaled over %d rounds", journal.Len(), rounds)
	}

	// The copies: a trainer and a policy may write what they were given.
	name := l.live[0].Job
	want := l.svc.state.Allocation(name)
	view := l.svc.Round(l.now)
	got := l.svc.state.Allocation(name)
	for n := range got.Row {
		got.Row[n], view.Capacity[n], view.Usage[n] = 99, 99, 99
	}
	if a := l.svc.state.Allocation(name); !slices.Equal(a.Row, want.Row) {
		t.Errorf("row = %v after writing to GetAllocation's reply, want %v", a.Row, want.Row)
	}
	if again := l.svc.Round(l.now); again.Capacity[0] != 4 || !slices.Equal(again.Usage, usageOf(l.svc.state)) || slices.Contains(again.Usage, 99) {
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
			svc.GetAllocation(name, &a)
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
	placed := svc.state.Allocation("b")
	if PlacementOf(placed.Row).GPUs != 2 {
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
	if a := svc.state.Allocation("b"); PlacementOf(a.Row).GPUs != 0 || a.Generation != placed.Generation+1 {
		t.Errorf("finished job holds %+v, want no GPUs at generation %d", a, placed.Generation+1)
	}
	others := make([]int, 2)
	for _, name := range []string{"a", "c"} {
		for n, g := range svc.state.Allocation(name).Row {
			others[n] += g
		}
	}
	if u := usageOf(svc.state); !slices.Equal(u, others) {
		t.Errorf("usage = %v, the other jobs hold %v", u, others)
	}
	if st := svc.Status(); st.Done != 1 || st.Running != 2 || st.GPUsUsed != 4 {
		t.Errorf("status: %+v", st)
	}
	if snap := svc.Snapshot(); !snap.Jobs[1].Report.Done || !ga.SameRow(svc.jobs["b"].p.row, svc.state.zero) {
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
	if a := svc.state.Allocation("a"); a.Row[0] != 0 || a.Generation != 1 {
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
		sum := make([]int, len(capacity))
		for job, p := range svc.state.rows {
			held := sched.PlacementOf(p.row).GPUs
			if svc.jobs[job].done && held != 0 {
				t.Errorf("done job %s holds %d GPUs", job, held)
			}
			for n, g := range p.row {
				sum[n] += g
			}
		}
		for n, c := range capacity {
			if sum[n] != svc.state.usage[n] || sum[n] > c {
				t.Errorf("node %d: rows sum to %d, usage total %d, capacity %d", n, sum[n], svc.state.usage[n], c)
			}
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
			svc.GetAllocation(name(i%jobs), &a)
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

func TestPlacementOfReExport(t *testing.T) {
	if PlacementOf([]int{2, 2}) != (core.Placement{GPUs: 4, Nodes: 2}) {
		t.Error("PlacementOf wrong")
	}
}
