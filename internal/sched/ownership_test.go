package sched

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ga"
)

// churnRun drives a scheduler through rounds of a changing job set, each
// round on a freshly built view whose Current holds the rows the previous
// round returned, keyed by job ID. Between rounds one job is refit, every
// fourth round changes nothing, and jobs leave and arrive. With scribble
// set, every cell of the matrix Schedule returned and of the view's
// Current is overwritten once the rows have been copied out.
func churnRun(p *Pollux, rounds int, scribble bool) (mats []string, stats []RoundStats) {
	base := viewWith(10, 8, 4)
	jobs := base.Jobs
	applied := map[int][]int{}
	nextID := 100
	for r := 0; r < rounds; r++ {
		v := &ClusterView{
			Capacity: append([]int(nil), base.Capacity...),
			Jobs:     append([]JobView(nil), jobs...),
			Current:  ga.NewMatrix(len(jobs), len(base.Capacity)),
		}
		for i, j := range jobs {
			copy(v.Current[i], applied[j.ID])
		}
		out := p.Schedule(v)
		b, _ := json.Marshal(out)
		mats = append(mats, string(b))
		stats = append(stats, p.LastRoundStats())
		applied = map[int][]int{}
		for i, j := range jobs {
			applied[j.ID] = append([]int(nil), out[i]...)
		}
		if scribble {
			for _, m := range []ga.Matrix{out, v.Current} {
				for _, row := range m {
					for n := range row {
						row[n] = 7 - r
					}
				}
			}
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

// TestScheduleKeepsNoCallerMemory pins the ownership rule of the committed
// matrix: what the scheduler keeps between rounds shares no cell with the
// matrix it returned or with the view it was given. A caller that
// overwrites both sees the same matrices, round stats and closing snapshot
// as one that leaves them alone.
func TestScheduleKeepsNoCallerMemory(t *testing.T) {
	for _, mode := range snapshotModes {
		t.Run(mode.name, func(t *testing.T) {
			const rounds = 11 // the first, then ten that depend on kept state
			clean, dirty := NewPollux(mode.opts, 29), NewPollux(mode.opts, 29)
			wantM, wantS := churnRun(clean, rounds, false)
			gotM, gotS := churnRun(dirty, rounds, true)
			for r := range wantM {
				if gotM[r] != wantM[r] {
					t.Fatalf("round %d: overwriting the caller's matrices changed the result:\nwant %s\ngot  %s", r, wantM[r], gotM[r])
				}
			}
			if !reflect.DeepEqual(gotS, wantS) {
				t.Errorf("round stats differ:\nwant %+v\ngot  %+v", wantS, gotS)
			}
			want, _ := json.Marshal(clean.Snapshot())
			got, _ := json.Marshal(dirty.Snapshot())
			if string(got) != string(want) {
				t.Error("closing snapshots differ: kept state aliases caller memory")
			}
		})
	}
}

// TestIncrementalRoundsRetainNoStaleMatrix runs 300 incremental rack
// rounds with churn (a refit, a departure and an arrival each) at 64 nodes
// × 1280 jobs and watches the heap. Rows that survive many rounds must
// not pin the matrices they were first built in, so the live heap after
// a collection stays level from round 50 to round 300. And a steady
// Schedule call allocates one whole matrix, the one it returns; at this
// size the per-job bookkeeping and the GAs come to about another, so 2.5
// leaves no room for a second whole-matrix copy.
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
	nextID := nJobs
	var ms runtime.MemStats
	totalAlloc := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	var heap50, heap300, steadyAlloc uint64
	partial := 0
	for r := 1; r <= rounds; r++ {
		v := &ClusterView{Capacity: base.Capacity, Jobs: jobs, Current: ga.NewMatrix(len(jobs), nodes)}
		for i, j := range jobs {
			copy(v.Current[i], applied[j.ID])
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
			row := applied[j.ID]
			if row == nil {
				row = make([]int, nodes)
				applied[j.ID] = row
			}
			copy(row, out[i])
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
	if perRound > 2.5*matrixBytes {
		t.Errorf("a steady Schedule call allocates %.2f matrices (%.0f KB), want under 2.5",
			perRound/matrixBytes, perRound/1e3)
	}
	t.Logf("live heap %.1f -> %.1f MB, %.2f matrices allocated per Schedule call, %d partial rounds",
		float64(heap50)/1e6, float64(heap300)/1e6, perRound/matrixBytes, partial)
}
