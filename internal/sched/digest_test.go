package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/ga"
	"repro/internal/models"
)

// Digests of churnDigest. The GA's choices hang on float comparisons and
// the closing snapshot holds fitted floats, so they hold for the toolchain
// and architecture the checked-in baselines are generated on (amd64, the
// CI-pinned Go), like bench/baselines/*.json.
//
// digestIncRack is the one recorded before the flat and incremental paths
// were merged (PR 12). digestDefault and digestIncremental were re-recorded
// when the dense mutation scan was deleted (PR 18): a solve covering the
// whole view used to flip one coin per cell and now samples the gaps
// between hits like every other solve, the same per-cell distribution from
// a different draw sequence. The rack configuration never mutated densely,
// so its digest standing through that change is what shows the occupant-list
// repair and the reflection-free survivor sort, which landed with it, draw
// and decide exactly as the code they replaced.
const (
	digestDefault     = "a8efa94057f4cac7db4365c85c86b962c53214c341b3a1d50fcaf48469fb023d"
	digestIncremental = "34c202045be60a14fe3798a3aa79e7e22cea3d996eb926d42cab02ef3c6adc73"
	digestIncRack     = "c5b573571e9bfbc7b18bae5928badaaa669020722074543e2748ae585cb8142b"
)

// churnDigest drives one Pollux instance through a 30-round trajectory on
// 16 nodes x 4 GPUs that visits every kind of round the scheduler has —
// cold start without a current allocation, steady refits, untouched
// rounds, a refit of every job at once, departures, arrivals with sparse
// IDs, a short Current, a capacity change, the FullEvery cadence — and
// returns the SHA-256 over every returned matrix, its RoundStats, and the
// final Snapshot.
func churnDigest(opts PolluxOptions) string {
	zoo := models.Zoo()
	capacity := make([]int, 16)
	for n := range capacity {
		capacity[n] = 4
	}
	newJob := func(k int) JobView {
		return JobView{
			ID:      k*97 + 13,
			Model:   zoo[k%len(zoo)].GoodputModel(0.1 + 0.04*float64(k%20)),
			GPUCap:  4 + 3*(k%6),
			MinGPUs: 1,
			GPUTime: 2400 * float64(k%9),
		}
	}
	var jobs []JobView
	for k := 0; k < 36; k++ {
		jobs = append(jobs, newJob(k))
	}
	nextJob := 36

	p := NewPollux(opts, 29)
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
	cur := map[int][]int{} // applied rows by job ID
	for r := 0; r < 30; r++ {
		v := &ClusterView{Capacity: capacity, Jobs: jobs}
		if r > 0 {
			v.Current = ga.NewMatrix(len(jobs), len(capacity))
			for i, j := range jobs {
				copy(v.Current[i], cur[j.ID])
			}
		}
		if r == 21 {
			v.Current = v.Current[:len(jobs)-2] // rows of the newest jobs not reported yet
		}
		out := p.Schedule(v)
		st := p.LastRoundStats()
		put(int64(len(out)))
		for _, row := range out {
			for _, g := range row {
				put(int64(g))
			}
		}
		put(int64(st.Jobs))
		put(int64(st.Sub))
		put(int64(st.Racks))
		put(flag(st.Full))
		put(flag(st.Skipped))
		put(st.FitnessCalls)
		put(st.FitnessCells)

		cur = map[int][]int{}
		for i, j := range jobs {
			cur[j.ID] = out[i]
			jobs[i].GPUTime += 60 * float64(out.JobGPUs(i))
		}

		// Churn before the next round.
		switch {
		case r == 7 || r == 8 || r == 16:
			// Nothing changes: incremental rounds skip.
		case r == 12:
			for i := range jobs {
				jobs[i].Model.Phi *= 1.2 // every agent refits at once
			}
		case r == 24:
			capacity = append([]int(nil), capacity...)
			capacity[5] = 2 // a node loses half its GPUs
		default:
			jobs[(3*r)%len(jobs)].Model.Phi *= 1.1
			if r%6 == 1 {
				jobs[(5*r)%len(jobs)].GPUCap++
			}
		}
		if r%4 == 3 {
			i := (7 * r) % len(jobs)
			jobs = append(append([]JobView(nil), jobs[:i]...), jobs[i+1:]...)
		}
		if r%5 == 4 || r == 20 {
			jobs = append(jobs, newJob(nextJob), newJob(nextJob+5))
			nextJob += 11
		}
	}
	// The closing state too: what a checkpoint taken here would hold.
	state, err := json.Marshal(p.Snapshot())
	if err != nil {
		panic(err)
	}
	h.Write(state)
	return hex.EncodeToString(h.Sum(nil))
}

// TestScheduleDigestPinned holds the three scheduler configurations to
// their recorded allocation trajectories (see the digests), at one and at
// four fitness workers.
func TestScheduleDigestPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		opts PolluxOptions
		want string
	}{
		{"default", PolluxOptions{Population: 24, Generations: 12, Lambda: 0.5}, digestDefault},
		{"incremental", PolluxOptions{Population: 24, Generations: 12, Lambda: 0.5, Incremental: true}, digestIncremental},
		{"incremental+racks", PolluxOptions{Population: 24, Generations: 12, Lambda: 0.5, Incremental: true, RackSize: 4}, digestIncRack},
	} {
		for _, workers := range []int{1, 4} {
			opts := c.opts
			opts.Workers = workers
			if got := churnDigest(opts); got != c.want {
				t.Errorf("%s, %d workers: digest %s, want %s", c.name, workers, got, c.want)
			}
		}
	}
}
