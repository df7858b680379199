package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/status"
	"repro/internal/testutil"
)

// megaOptions are the mega preset's incremental rack rounds, the options
// benchmark/svcload.go runs svc_round_inc256 under.
var megaOptions = sched.PolluxOptions{Population: 20, Generations: 10, Incremental: true, FullEvery: -1, RackSize: 16}

// steadyLoad is the svc_round_inc256 workload of benchmark/svcload.go at a
// chosen size: a Service holding a steady population of live jobs,
// scheduled by Pollux once per simulated minute, with every live job
// re-reporting and one refit, one finished job and one arrival before every
// round.
type steadyLoad struct {
	svc    *Service
	pollux *sched.Pollux
	policy sched.Policy // what schedule hands the service; pollux when nil
	rng    *rand.Rand
	zoo    []*models.Spec
	gpus   int
	live   []Report
	serial int
	now    float64
}

// newSteadyLoad registers the jobs and runs the cold round, which places
// the whole population from nothing.
func newSteadyLoad(tb testing.TB, nodes, jobs int, seed int64) *steadyLoad {
	capacity := make([]int, nodes)
	for n := range capacity {
		capacity[n] = 4
	}
	l := &steadyLoad{
		svc:    NewService(NewState(capacity)),
		pollux: sched.NewPollux(megaOptions, seed),
		rng:    rand.New(rand.NewSource(seed)),
		zoo:    models.Zoo(),
		gpus:   4 * nodes,
	}
	for i := 0; i < jobs; i++ {
		l.live = append(l.live, l.newJob())
		l.submit(tb, l.live[i])
	}
	l.schedule(tb)
	return l
}

func (l *steadyLoad) newJob() Report {
	spec := l.zoo[l.serial%len(l.zoo)]
	model := spec.GoodputModel(0.1 + 0.8*l.rng.Float64())
	userGPUs := 1 + l.rng.Intn(4)
	r := Report{
		Job:            fmt.Sprintf("job-%06d", l.serial),
		Phi:            model.Phi,
		M0:             spec.M0,
		MaxBatchPerGPU: spec.MaxBatchPerGPU,
		MaxBatchGlobal: spec.MaxBatchGlobal,
		GPUCap:         min(4<<l.rng.Intn(4), l.gpus),
		GPUTime:        5 * 3600 * l.rng.Float64(),
		Submit:         l.now,
		UserGPUs:       userGPUs,
		UserBatch:      spec.M0 * userGPUs,
		RemainingIters: 1e4,
	}
	copy(r.Params[:], spec.Truth.Vector())
	l.serial++
	return r
}

func (l *steadyLoad) submit(tb testing.TB, r Report) {
	tb.Helper()
	if err := l.svc.SubmitReport(r, nil); err != nil {
		tb.Fatal(err)
	}
}

func (l *steadyLoad) schedule(tb testing.TB) {
	tb.Helper()
	policy := l.policy
	if policy == nil {
		policy = l.pollux
	}
	if n, err := l.svc.ScheduleOnce(policy, l.now); err != nil || n != len(l.live) {
		tb.Fatalf("round at t=%.0f: scheduled %d of %d jobs: %v", l.now, n, len(l.live), err)
	}
	l.now += 60
}

// churn is the traffic between two rounds, that of svc_round_inc256: a
// refit moves one job's noise scale, one job finishes (churn returns its
// name), every live job reports its attained service, and one job arrives,
// at the end of the registration order like every arrival.
func (l *steadyLoad) churn(tb testing.TB) (finished string) {
	tb.Helper()
	l.live[l.rng.Intn(len(l.live))].Phi *= 1.25
	d := l.rng.Intn(len(l.live))
	l.live[d].Done = true
	for i := range l.live {
		r := &l.live[i]
		r.GPUTime += 60 * float64(r.UserGPUs)
		l.submit(tb, *r)
	}
	finished = l.live[d].Job
	l.live = append(slices.Delete(l.live, d, d+1), l.newJob())
	l.submit(tb, l.live[len(l.live)-1])
	return finished
}

// steadyDigest runs the steady load for the given number of rounds and
// returns the SHA-256 over what each round left behind — every live job's
// ledger row and generation, and the round's RoundStats — closed by the
// scheduler's rng draw count and the job IDs of its committed matrix.
func steadyDigest(t *testing.T, nodes, jobs, rounds int, seed int64) string {
	l := newSteadyLoad(t, nodes, jobs, seed)
	h := sha256.New()
	put := func(x int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	for r := 0; r < rounds; r++ {
		l.churn(t)
		l.schedule(t)
		for _, rep := range l.live {
			var a Allocation
			l.svc.GetAllocation(AllocQuery{Job: rep.Job, Have: -1}, &a)
			h.Write([]byte(rep.Job))
			put(int64(a.Generation))
			for _, g := range a.Row {
				put(int64(g))
			}
		}
		st := l.pollux.LastRoundStats()
		put(int64(st.Jobs))
		put(int64(st.Sub))
		put(int64(st.Racks))
		put(flag(st.Full))
		put(flag(st.Skipped))
		put(st.FitnessCalls)
		put(st.FitnessCells)
	}
	snap := l.pollux.Snapshot()
	put(int64(snap.RNG.Draws))
	for _, id := range snap.Inc.IDs {
		put(int64(id))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSteadyServiceDigestPinned holds the service and the scheduler
// together to the trajectories recorded before reports became view entries
// and the scheduler kept one record per job (PR 19): the same rows, at the
// same generations, from the same work and the same rng draws, under the
// traffic svc_round_inc256 runs. Like the digests of internal/sched, they
// hold for the toolchain and architecture of the checked-in baselines.
func TestSteadyServiceDigestPinned(t *testing.T) {
	for _, c := range []struct {
		nodes, jobs, rounds int
		seed                int64
		want                string
	}{
		{64, 1280, 60, 1, "bdbb48920be65292e298228d45f7b35ab0e78122e7dff7974a8ac97e90cdded8"},
		{64, 1280, 60, 2, "144c947a17319e9352b6a22f644fcb6098c2e1ef62dbeef914b97823cbf43fef"},
		{16, 40, 200, 3, "f226b2482f4f3a9200a6d6bf168bf1eba9ec3391084c1bea3e7fcabf52aa4401"},
	} {
		if got := steadyDigest(t, c.nodes, c.jobs, c.rounds, c.seed); got != c.want {
			t.Errorf("%dx%d, seed %d, %d rounds: digest %s, want %s", c.nodes, c.jobs, c.seed, c.rounds, got, c.want)
		}
	}
}

// BenchmarkServiceRoundSteady times one steady scheduling round of the
// service (runtime.Step: snapshot, dirty set, rack GAs, validation, diff,
// commit) at 64 nodes × 1280 jobs under the mega preset; the traffic
// between rounds, every live job re-reporting, is outside the timer. A
// steady round re-places a few dozen jobs, so its allocations are the
// composed result's row headers, the re-placed rows and the sub-problem
// GAs; the view and the scheduler's per-job slices are refilled, not
// allocated. It runs at GOMAXPROCS 1, so the GAs start no scorers and
// allocs/op and B/op repeat: CI gates both exactly
// (bench/baselines/gobench.json, at -benchtime 20x), and one whole-matrix
// or whole-view allocation, or one allocation per job or per report,
// coming back moves them. A collection inside a timed round adds
// the runtime's own objects to it, enough to tip the mean over the gate,
// so each round starts from one run while the timer is stopped.
func BenchmarkServiceRoundSteady(b *testing.B) {
	testutil.SetProcs(b, 1)
	l := newSteadyLoad(b, 64, 1280, 1)
	for i := 0; i < 10; i++ { // reach the steady state
		l.churn(b)
		l.schedule(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l.churn(b)
		runtime.GC()
		b.StartTimer()
		l.schedule(b)
	}
}

// BenchmarkServiceSubmitReport times a live job re-reporting, which is
// most of a service's traffic: one lookup by name and the conversion of
// the report into the view entry the next round copies. CI gates its
// allocs/op at 0.
func BenchmarkServiceSubmitReport(b *testing.B) {
	l := newSteadyLoad(b, 64, 1280, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &l.live[i%len(l.live)]
		r.GPUTime += 60 * float64(r.UserGPUs)
		if err := l.svc.SubmitReport(*r, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServicePoll times a trainer's allocation poll between two
// rounds, at the generation of the row it already holds, which is most
// polls (a trainer polls twelve times a round): one lookup by name and the
// generation back, no row. CI gates its allocs/op at 0; a poll that copies
// an unchanged row is 1.
func BenchmarkServicePoll(b *testing.B) {
	l := newSteadyLoad(b, 64, 1280, 1)
	have := make([]AllocQuery, len(l.live))
	for i, rep := range l.live {
		var a Allocation
		if err := l.svc.GetAllocation(AllocQuery{Job: rep.Job, Have: -1}, &a); err != nil {
			b.Fatal(err)
		}
		have[i] = AllocQuery{Job: rep.Job, Have: a.Generation}
	}
	var a Allocation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.svc.GetAllocation(have[i%len(have)], &a); err != nil || a.Row != nil {
			b.Fatalf("poll at the held generation: %+v, %v", a, err)
		}
	}
}

// TestSharedRowsUnderConcurrentReaders runs allocation polls, service
// snapshots and status reads against 50 churning rounds whose views share
// the ledger's rows (under -race in CI). The readers touch rows only under
// the ledger's lock and the round reads them outside it; that is sound
// only because no installed row is ever written, which is what the race
// detector checks here.
func TestSharedRowsUnderConcurrentReaders(t *testing.T) {
	const nodes, jobs, rounds = 16, 96, 50
	l := newSteadyLoad(t, nodes, jobs, 3)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(read func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					read(i)
				}
			}
		}()
	}
	reader(func(i int) { // trainers polling, finished jobs included
		var a Allocation
		l.svc.GetAllocation(AllocQuery{Job: fmt.Sprintf("job-%06d", i%(jobs+rounds)), Have: -1}, &a)
		if len(a.Row) != nodes {
			t.Errorf("allocation row has %d nodes", len(a.Row))
		}
		for n := range a.Row {
			a.Row[n] = -1 // a copy: the trainer may do as it likes with it
		}
	})
	reader(func(int) { // the checkpointer
		snap := l.svc.Snapshot()
		for _, js := range snap.Jobs {
			if js.HasAlloc && len(js.Row) != nodes {
				t.Errorf("snapshot row of %s has %d nodes", js.Report.Job, len(js.Row))
			}
		}
	})
	reader(func(int) { // the status endpoint
		if st := l.svc.Status(); st.Running+st.Pending+st.Done != st.Jobs || st.GPUsUsed > st.GPUsTotal {
			t.Errorf("status %+v does not add up", st)
		}
	})
	for r := 0; r < rounds; r++ {
		l.churn(t)
		l.schedule(t)
	}
	close(stop)
	wg.Wait()
	// The counts come from the live list: a finished job is Done from its
	// report on, before any round has dropped its entry, and a restored
	// service counts what the saved one did.
	held := func(job string) bool {
		var a Allocation
		l.svc.GetAllocation(AllocQuery{Job: job, Have: -1}, &a)
		return sched.PlacementOf(a.Row).GPUs > 0
	}
	want := l.svc.Status()
	running := 0
	for _, rep := range l.live {
		if held(rep.Job) {
			running++
		}
	}
	if want.Done != rounds || want.Jobs != jobs+rounds || want.Running != running || want.Pending != jobs-running {
		t.Errorf("after %d rounds with %d of %d live jobs running: %+v", rounds, running, jobs, want)
	}
	last := l.live[0]
	if held(last.Job) {
		want.Running--
	} else {
		want.Pending--
	}
	want.Done++
	last.Done = true
	l.submit(t, last)
	same := func(a, b status.Cluster) bool {
		return a.Jobs == b.Jobs && a.Running == b.Running && a.Pending == b.Pending && a.Done == b.Done
	}
	if st := l.svc.Status(); !same(st, want) {
		t.Errorf("after %s reported Done: %+v, want the counts of %+v", last.Job, st, want)
	}
	restored := NewService(NewState(l.svc.Snapshot().Capacity))
	if err := restored.RestoreSnapshot(l.svc.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if st := restored.Status(); !same(st, want) {
		t.Errorf("restored service: %+v, want the counts of %+v", st, want)
	}
}
