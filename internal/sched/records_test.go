package sched

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ga"
	"repro/internal/models"
)

// lookupByID is the oracle newRound's lookup is held to: each view job's
// record found by ID alone, through a map built here from the scheduler's
// records; nil for a job it has none for.
func lookupByID(p *Pollux, v *ClusterView) []*jobRec {
	byID := make(map[int]*jobRec, len(p.recs))
	for _, rec := range p.recs {
		byID[rec.id] = rec
	}
	found := make([]*jobRec, len(v.Jobs))
	for i := range v.Jobs {
		found[i] = byID[v.Jobs[i].ID]
	}
	return found
}

// checkRecords: the scheduler holds one record per job of the view, under
// its ID and at its row of the committed matrix, and nothing — record or
// speedup table — for any other job. After a round that solved, the
// committed order is the view's.
func checkRecords(t *testing.T, label string, p *Pollux, v *ClusterView) {
	t.Helper()
	if len(p.recs) != len(v.Jobs) || len(p.byID) != len(v.Jobs) || len(p.inc.rows) != len(v.Jobs) {
		t.Fatalf("%s: %d records, %d by ID, %d committed rows for %d jobs", label, len(p.recs), len(p.byID), len(p.inc.rows), len(v.Jobs))
	}
	inView := make(map[int]bool, len(v.Jobs))
	for i := range v.Jobs {
		id := v.Jobs[i].ID
		inView[id] = true
		rec := p.byID[id]
		if rec == nil || rec.id != id || rec.pos < 0 || rec.pos >= len(p.recs) || p.recs[rec.pos] != rec {
			t.Fatalf("%s: job %d has record %+v", label, id, rec)
		}
		if !p.lastStats.Skipped && rec.pos != i {
			t.Errorf("%s: job %d is at row %d of the committed matrix, view index %d", label, id, rec.pos, i)
		}
		if rec.table == nil || rec.table.model != v.Jobs[i].Model {
			t.Errorf("%s: job %d has no speedup table of its model", label, id)
		}
	}
	snap := p.Snapshot()
	for _, ts := range snap.Tables {
		if !inView[ts.JobID] {
			t.Errorf("%s: a speedup table is kept for job %d, which is not in the view", label, ts.JobID)
		}
	}
	if !slices.Equal(snap.PrevJobs, snap.Inc.IDs) {
		t.Errorf("%s: snapshot carries jobs %v but commits %v", label, snap.PrevJobs, snap.Inc.IDs)
	}
}

// TestRecordLookupMatchesIDMap drives incremental rounds over views whose
// job order is shuffled between rounds (what the admit front end's
// priority stage does), with arrivals in the middle, several departures at
// once, skipped rounds, a widened round and a capacity change. Before each
// round newRound finds exactly the records an ID map finds; after each the
// records are those of the view and of no other job; and a scheduler
// restored from a checkpoint half way commits what its uninterrupted twin
// commits.
func TestRecordLookupMatchesIDMap(t *testing.T) {
	const (
		rounds     = 20
		arriveAt   = 3  // two jobs join in the middle of the order
		departAt   = 5  // four jobs leave at once
		quietAt    = 7  // nothing changes: a skipped round
		quietMixAt = 8  // nothing but the order changes: skipped, and the records keep the committed order
		restoreAt  = 10 // p continues from a checkpoint, its twin does not
		widenAt    = 11 // a partial solve is abandoned for one over all jobs
		shrinkAt   = 13 // a node loses half its GPUs
		allAt      = 15 // arrival, departures and a shuffle together
	)
	zoo := models.Zoo()
	newJob := func(k int) JobView {
		return JobView{
			ID:      k*97 + 13,
			Model:   zoo[k%len(zoo)].GoodputModel(0.1 + 0.04*float64(k%20)),
			GPUCap:  4 + 3*(k%6),
			MinGPUs: 1,
			GPUTime: 2400 * float64(k%9),
		}
	}
	for _, opts := range []PolluxOptions{
		{Population: 12, Generations: 6, Incremental: true, FullEvery: -1, Workers: 1},
		{Population: 12, Generations: 6, Incremental: true, FullEvery: -1, RackSize: 4, Workers: 1},
	} {
		t.Run(fmt.Sprintf("racksize=%d", opts.RackSize), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			capacity := make([]int, 16)
			for n := range capacity {
				capacity[n] = 4
			}
			var jobs []JobView
			for k := 0; k < 30; k++ {
				jobs = append(jobs, newJob(k))
			}
			serial := len(jobs)
			p, twin := NewPollux(opts, 7), NewPollux(opts, 7)
			curP, curTwin := map[int][]int{}, map[int][]int{} // applied rows by job ID

			viewOf := func(cur map[int][]int) *ClusterView {
				v := &ClusterView{Capacity: capacity, Jobs: slices.Clone(jobs), Current: make(ga.Matrix, len(jobs))}
				zero := make([]int, len(capacity))
				for i, j := range jobs {
					v.Current[i] = zero
					if row := cur[j.ID]; row != nil {
						v.Current[i] = row
					}
				}
				return v
			}
			// round is one Schedule call, or on the widened round what
			// Schedule does when the partial solve fails its feasibility
			// check (which no input from outside can make it fail).
			round := func(s *Pollux, v *ClusterView, cur map[int][]int, widen bool) ga.Matrix {
				var out ga.Matrix
				if widen {
					r := s.newRound(v)
					r.price(r.dirtySet())
					out = r.solve(allJobs(len(jobs)), opts.RackSize > 0)
				} else {
					out = s.Schedule(v)
				}
				clear(cur)
				for i, j := range jobs {
					cur[j.ID] = out[i]
				}
				return out
			}
			for r := 0; r < rounds; r++ {
				label := fmt.Sprintf("round %d", r)
				quiet := r == quietAt || r == quietMixAt
				if r > 0 && !quiet {
					for n := 0; n < 2; n++ {
						jobs[rng.Intn(len(jobs))].Model.Phi *= 1.1 // refits
					}
				}
				if r == arriveAt || r == allAt {
					jobs = slices.Insert(jobs, len(jobs)/2, newJob(serial), newJob(serial+1))
					serial += 2
				}
				if r == departAt || r == allAt {
					for _, at := range []int{len(jobs) - 1, 2 * len(jobs) / 3, len(jobs) / 3, 0} {
						jobs = slices.Delete(jobs, at, at+1)
					}
				}
				if r == shrinkAt {
					capacity = slices.Clone(capacity)
					capacity[5] = 2
				}
				if (r%2 == 1 && !quiet) || r == quietMixAt || r == allAt {
					rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
				}

				// The lookup, against the oracle.
				view := viewOf(curP)
				want := lookupByID(p, view)
				for i, rec := range p.newRound(view).recs {
					switch {
					case rec.id != jobs[i].ID:
						t.Fatalf("%s: job %d was given the record of job %d", label, jobs[i].ID, rec.id)
					case want[i] == nil && (rec.pos >= 0 || p.byID[rec.id] != nil):
						t.Fatalf("%s: arrival %d was given a kept record %+v", label, rec.id, rec)
					case want[i] != nil && rec != want[i]:
						t.Fatalf("%s: job %d was given a record other than the one kept under its ID", label, rec.id)
					}
				}

				kept := slices.Clone(p.recs)
				got, twinGot := round(p, view, curP, r == widenAt), round(twin, viewOf(curTwin), curTwin, r == widenAt)
				if !got.Equal(twinGot) || p.LastRoundStats() != twin.LastRoundStats() {
					t.Fatalf("%s: committed\n%v (%+v), the twin\n%v (%+v)", label, got, p.LastRoundStats(), twinGot, twin.LastRoundStats())
				}
				switch st := p.LastRoundStats(); {
				case r == widenAt: // driven below Schedule, which keeps the stats
				case quiet && (!st.Skipped || !slices.Equal(kept, p.recs)):
					t.Errorf("%s: an unchanged view was not skipped with the records as they were: %+v", label, st)
				case r == shrinkAt && !st.Full:
					t.Errorf("%s: not every job was re-placed after a capacity change: %+v", label, st)
				case !quiet && st.Skipped:
					t.Errorf("%s: skipped: %+v", label, st)
				}
				checkRecords(t, label, p, view)

				if r == restoreAt {
					raw, err := json.Marshal(p.Snapshot())
					if err != nil {
						t.Fatal(err)
					}
					var snap PolluxSnapshot
					if err := json.Unmarshal(raw, &snap); err != nil {
						t.Fatal(err)
					}
					before := p.Snapshot()
					p = NewPollux(opts, 0)
					if err := p.Restore(&snap); err != nil {
						t.Fatal(err)
					}
					if after := p.Snapshot(); !reflect.DeepEqual(before, after) {
						t.Fatalf("%s: the restored scheduler snapshots differently", label)
					}
					checkRecords(t, label+", restored", p, view)
				}
			}
		})
	}
}
