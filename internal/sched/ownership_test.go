package sched

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ga"
	"repro/internal/testutil"
)

// churnRun drives a scheduler through rounds of a changing job set.
// Between rounds one job is refit, every fourth round changes nothing, and
// jobs leave and arrive. With journal nil the caller copies at every
// boundary: each round's view holds a fresh Current filled from copies of
// the rows the previous round returned. With a journal the caller shares,
// as cluster.State does: the row a round returned for a job is, by
// identity, that job's Current row next round (one zero row stands in for
// a job without one), every row seen in a view, a result or the
// scheduler's kept state goes into the journal, and the identity the
// scheduler promises back is checked: a job it did not re-place gets its
// view row, and the result is the committed state.
func churnRun(t *testing.T, p *Pollux, rounds int, journal *testutil.RowJournal) (mats []string, stats []RoundStats) {
	base := viewWith(10, 8, 4)
	jobs := base.Jobs
	applied := map[int][]int{}
	zero := make([]int, len(base.Capacity))
	nextID := 100
	for r := 0; r < rounds; r++ {
		v := &ClusterView{
			Capacity: append([]int(nil), base.Capacity...),
			Jobs:     append([]JobView(nil), jobs...),
			Current:  ga.NewMatrix(len(jobs), len(base.Capacity)),
		}
		for i, j := range jobs {
			switch row := applied[j.ID]; {
			case journal == nil:
				copy(v.Current[i], row)
			case row == nil:
				v.Current[i] = zero
			default:
				v.Current[i] = row
			}
		}
		out := p.Schedule(v)
		b, _ := json.Marshal(out)
		mats = append(mats, string(b))
		st := p.LastRoundStats()
		stats = append(stats, st)
		applied = map[int][]int{}
		for i, j := range jobs {
			applied[j.ID] = out[i]
			if journal == nil {
				applied[j.ID] = append([]int(nil), out[i]...)
			}
		}
		if journal != nil {
			journal.See(v.Current)
			journal.See(out)
			for _, m := range p.prevPop {
				journal.See(m)
			}
			kept := 0
			for i := range out {
				if ga.SameRow(out[i], v.Current[i]) {
					kept++
				}
			}
			if kept < st.Jobs-st.Sub {
				t.Errorf("round %d: %d of %d rows came back as the view's own, with only %d re-placed", r, kept, st.Jobs, st.Sub)
			}
			if p.inc != nil && !st.Skipped {
				journal.See(p.inc.rows)
				for i := range out {
					if !ga.SameRow(out[i], p.inc.rows[i]) {
						t.Errorf("round %d: job %d's committed row is not the row returned", r, i)
					}
				}
			}
			journal.Check(t, fmt.Sprintf("round %d", r))
		}
		switch {
		case r%4 == 2: // nothing changes: a skipped round under Incremental
		case r == 4:
			jobs = append(append([]JobView(nil), jobs[:3]...), jobs[4:]...)
		case r == 7:
			nj := base.Jobs[0]
			nj.ID = nextID
			nextID++
			jobs = append(jobs, nj)
		default:
			jobs[(3*r)%len(jobs)].Model.Phi *= 1.25
		}
	}
	return mats, stats
}

// TestPublishedRowsAreNeverWritten pins the ownership rule of allocation
// rows on the scheduler's side: a row that has been in a view, in a
// returned matrix or in the kept state is never written again, under any
// round mode, so a caller that shares rows with the scheduler sees the same
// matrices, round stats and closing snapshot as one that copies them at
// every boundary. internal/cluster has the same test over the ledger.
func TestPublishedRowsAreNeverWritten(t *testing.T) {
	for _, mode := range snapshotModes {
		t.Run(mode.name, func(t *testing.T) {
			const rounds = 11 // the first, then ten that depend on kept state
			copying, sharing := NewPollux(mode.opts, 29), NewPollux(mode.opts, 29)
			wantM, wantS := churnRun(t, copying, rounds, nil)
			var journal testutil.RowJournal
			gotM, gotS := churnRun(t, sharing, rounds, &journal)
			for r := range wantM {
				if gotM[r] != wantM[r] {
					t.Fatalf("round %d: sharing rows with the scheduler changed the result:\nwant %s\ngot  %s", r, wantM[r], gotM[r])
				}
			}
			if !reflect.DeepEqual(gotS, wantS) {
				t.Errorf("round stats differ:\nwant %+v\ngot  %+v", wantS, gotS)
			}
			want, _ := json.Marshal(copying.Snapshot())
			got, _ := json.Marshal(sharing.Snapshot())
			if string(got) != string(want) {
				t.Error("closing snapshots differ")
			}
			if journal.Len() < rounds {
				t.Errorf("only %d rows journaled over %d rounds", journal.Len(), rounds)
			}
		})
	}
}

// TestIncrementalRoundsRetainNoStaleMatrix runs 300 incremental rack
// rounds with churn (a refit, a departure and an arrival each) at 64 nodes
// × 1280 jobs and watches the heap. Rows that survive many rounds must
// not pin the matrices they were first built in, so the live heap after
// a collection stays level from round 50 to round 300. And a steady
// Schedule call builds no whole matrix: it allocates row headers, one row
// per re-placed job, the per-job bookkeeping (signatures, IDs, placements,
// weights) and the sub-problem GAs, which measured 0.96 of one 655 KB
// matrix at this size. The ceiling of 1.2 leaves that 25% headroom and
// no room for a matrix-sized copy on top.
func TestIncrementalRoundsRetainNoStaleMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("300 rounds at 1280 jobs")
	}
	const nodes, nJobs, rounds = 64, 1280, 300
	const matrixBytes = nodes * nJobs * 8
	base := viewWith(nJobs, nodes, 4)
	for i := range base.Jobs {
		base.Jobs[i].GPUCap = 4 << (i % 3)
		base.Jobs[i].Model.Phi *= 1 + float64(i%7)/10
	}
	jobs := base.Jobs
	p := NewPollux(PolluxOptions{Population: 20, Generations: 10, Incremental: true, FullEvery: -1, RackSize: 16}, 5)
	applied := make(map[int][]int, nJobs)
	zero := make([]int, nodes)
	nextID := nJobs
	var ms runtime.MemStats
	totalAlloc := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	var heap50, heap300, steadyAlloc uint64
	partial := 0
	for r := 1; r <= rounds; r++ {
		// Rows are shared the way the service's ledger shares them: a job's
		// Current row is the slice the last round returned for it.
		v := &ClusterView{Capacity: base.Capacity, Jobs: jobs, Current: make(ga.Matrix, len(jobs))}
		for i, j := range jobs {
			if v.Current[i] = applied[j.ID]; v.Current[i] == nil {
				v.Current[i] = zero
			}
		}
		before := totalAlloc()
		out := p.Schedule(v)
		if r > 50 {
			steadyAlloc += totalAlloc() - before
		}
		if st := p.LastRoundStats(); !st.Full && !st.Skipped {
			partial++
		}
		for i, j := range jobs {
			applied[j.ID] = out[i]
		}
		// Churn, in place: a refit that keeps φ bounded, and the job at a
		// moving position replaced by an arrival.
		refit := &jobs[(7*r)%len(jobs)].Model
		if r%2 == 0 {
			refit.Phi *= 1.25
		} else {
			refit.Phi *= 0.8
		}
		gone := (13 * r) % len(jobs)
		delete(applied, jobs[gone].ID)
		jobs[gone].ID = nextID
		nextID++

		if r == 50 || r == rounds {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if r == 50 {
				heap50 = ms.HeapAlloc
			} else {
				heap300 = ms.HeapAlloc
			}
		}
	}
	perRound := float64(steadyAlloc) / float64(rounds-50)

	if partial < rounds*9/10 {
		t.Fatalf("only %d of %d rounds were partial; the test does not exercise row reuse", partial, rounds)
	}
	if float64(heap300) > 1.25*float64(heap50) {
		t.Errorf("live heap grew from %.1f MB at round 50 to %.1f MB at round 300 (one matrix is %.2f MB)",
			float64(heap50)/1e6, float64(heap300)/1e6, matrixBytes/1e6)
	}
	if perRound > 1.2*matrixBytes {
		t.Errorf("a steady Schedule call allocates %.2f matrices (%.0f KB), want under 1.2",
			perRound/matrixBytes, perRound/1e3)
	}
	t.Logf("live heap %.1f -> %.1f MB, %.2f matrices allocated per Schedule call, %d partial rounds",
		float64(heap50)/1e6, float64(heap300)/1e6, perRound/matrixBytes, partial)
}
