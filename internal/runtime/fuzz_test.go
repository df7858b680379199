package runtime

import (
	"testing"

	"repro/internal/admit"
	"repro/internal/ga"
	"repro/internal/sched"
)

// stepCase is one decoded fuzz input: a cluster, a job count, what a
// policy returned for them, and the allocation it was shown.
type stepCase struct {
	frontEnd bool
	capacity []int
	jobs     int
	result   ga.Matrix
	// current is a valid allocation (the backend's contract); with usage
	// set the view carries its column sums, so Step validates by delta.
	current ga.Matrix
	usage   bool
}

// decodeStepCase reads a case off the bytes; missing bytes read as zero.
// The result may have the wrong number of rows, rows of the wrong width
// (a width byte of 7 mod 8 picks one), and entries in [-8, 7]. After it
// come the usage switch, the current rows (each cell at most what the
// earlier rows leave free) and one byte per result row that may replace it
// by a slice already in play: its own current row, another job's current
// row, or the next result row — the sharing an identity test must not
// mistake for "unchanged".
func decodeStepCase(data []byte) stepCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	c := stepCase{frontEnd: next()&1 == 1}
	c.capacity = make([]int, 1+next()%4)
	for n := range c.capacity {
		c.capacity[n] = int(next() % 9)
	}
	c.jobs = int(next() % 6)
	c.result = make(ga.Matrix, next()%7)
	for i := range c.result {
		width := len(c.capacity)
		if b := next(); b%8 == 7 {
			width = int(b/8) % 6
		}
		c.result[i] = make([]int, width)
		for n := range c.result[i] {
			c.result[i][n] = int(int8(next())) >> 4
		}
	}
	c.usage = next()&1 == 1
	c.current = ga.NewMatrix(c.jobs, len(c.capacity))
	free := append([]int(nil), c.capacity...)
	for _, row := range c.current {
		for n := range row {
			row[n] = int(next()) % (free[n] + 1)
			free[n] -= row[n]
		}
	}
	for i := range c.result {
		switch share := next() % 4; {
		case share == 1 && i < c.jobs:
			c.result[i] = c.current[i]
		case share == 2 && c.jobs > 0:
			c.result[i] = c.current[(i+1)%c.jobs]
		case share == 3:
			c.result[i] = c.result[(i+1)%len(c.result)]
		}
	}
	return c
}

// recordingBackend counts commits and keeps the last committed matrix.
type recordingBackend struct {
	view      *sched.ClusterView
	commits   int
	committed ga.Matrix
}

func (b *recordingBackend) Round(float64) *sched.ClusterView { return b.view }

func (b *recordingBackend) Commit(m ga.Matrix, _ []bool) error {
	b.commits++
	b.committed = m
	return nil
}

// FuzzStepValidation hands Step an arbitrary policy result. The round
// never half-commits: either Step reports an error and Commit was never
// called, or Commit was called exactly once, with a matrix that has a row
// per job and passes the column-sum oracle. A result the oracle accepts
// is committed, whether Step validated the whole matrix or, given the
// view's usage totals, only the rows that changed. With the front end
// on, the rows reach the backend un-permuted, which moves rows and leaves
// every column sum as it was.
// The seed corpus under testdata/fuzz runs on every plain `go test`.
func FuzzStepValidation(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeStepCase(data)
		v := &sched.ClusterView{Capacity: c.capacity, Current: c.current}
		if c.usage {
			v.Usage = make([]int, len(c.capacity))
			for _, row := range c.current {
				for n, g := range row {
					v.Usage[n] += g
				}
			}
		}
		for i := 0; i < c.jobs; i++ {
			// Later jobs are due sooner, so the SLO stage reverses them.
			v.Jobs = append(v.Jobs, sched.JobView{ID: i, Deadline: float64(1000 - 100*i)})
		}
		var fe *admit.FrontEnd
		if c.frontEnd {
			var err error
			if fe, err = admit.New(&admit.Options{Priority: admit.PrioritySLO}); err != nil {
				t.Fatal(err)
			}
		}
		b := &recordingBackend{view: v}
		valid := len(c.result) == c.jobs && checkOracle(c.capacity, c.result)

		n, err := Step(b, fe, fixedPolicy{c.result}, 0)
		switch {
		case c.jobs == 0:
			if n != 0 || err != nil || b.commits != 0 {
				t.Fatalf("empty round: Step = (%d, %v) with %d commits", n, err, b.commits)
			}
		case err != nil:
			if b.commits != 0 {
				t.Fatalf("Step failed (%v) after %d commits of %v", err, b.commits, b.committed)
			}
			if valid {
				t.Fatalf("valid result %v for capacity %v refused: %v", c.result, c.capacity, err)
			}
		default:
			if b.commits != 1 || n != c.jobs {
				t.Fatalf("Step = (%d, nil) for %d jobs with %d commits", n, c.jobs, b.commits)
			}
			if len(b.committed) != c.jobs || !checkOracle(c.capacity, b.committed) {
				t.Fatalf("committed %v for %d jobs on capacity %v", b.committed, c.jobs, c.capacity)
			}
		}
	})
}
