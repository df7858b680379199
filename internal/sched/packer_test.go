package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ga"
)

// packJob is the packer's oracle, the packing rule written directly: it
// sums free for every job and rescans every node for each node it takes.
// It places g GPUs onto the nodes with the most free GPUs, lowest index on
// a tie, adding them to row and taking them from free; when g <= 0 or fewer
// than g GPUs are free in total it touches neither and reports false.
func packJob(row, free []int, g int) bool {
	total := 0
	for _, f := range free {
		total += f
	}
	if g <= 0 || total < g {
		return false
	}
	// Repeatedly take from the node with the most free GPUs.
	for g > 0 {
		best := 0
		for n, f := range free {
			if f > free[best] {
				best = n
			}
		}
		take := min(free[best], g)
		row[best] += take
		free[best] -= take
		g -= take
	}
	return true
}

// randomCapacity draws a free vector of one of three shapes: equal nodes,
// unequal nodes with zero-capacity ones among them, and the residual an
// incremental round leaves (eight-GPU nodes less what clean rows hold,
// never below zero). Sizes cross the 64-node word boundary.
func randomCapacity(rng *rand.Rand, shape int) []int {
	free := make([]int, rng.Intn(140))
	for n := range free {
		switch shape {
		case 0:
			free[n] = 4
		case 1:
			free[n] = rng.Intn(9)
		default:
			free[n] = max(0, 8-rng.Intn(12))
		}
	}
	return free
}

// TestPackerMatchesOracle packs random demand sequences with the packer and
// with packJob from the same free vector, and requires the same verdict,
// the same row and the same free vector after every job, g <= 0 and
// g > total among them. One packer serves every trial, so a reset to
// another width or another top level must leave nothing behind.
func TestPackerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var p packer
	for trial := 0; trial < 600; trial++ {
		capacity := randomCapacity(rng, trial%3)
		free := slices.Clone(capacity)
		p.reset(capacity)
		for k := 0; k < 30; k++ {
			total := 0
			for _, f := range free {
				total += f
			}
			var g int
			switch rng.Intn(6) {
			case 0:
				g = -rng.Intn(3) // g <= 0
			case 1:
				g = total + 1 + rng.Intn(3) // more than is free
			case 2:
				g = total // exactly what is left
			default:
				g = 1 + rng.Intn(12)
			}
			want, got := make([]int, len(free)), make([]int, len(free))
			okWant := packJob(want, free, g)
			okGot := p.take(got, g)
			if okGot != okWant || !slices.Equal(got, want) || !slices.Equal(p.free, free) {
				t.Fatalf("trial %d, job %d: take(%d) on %v = %v %v, free %v; the oracle gives %v %v, free %v",
					trial, k, g, capacity, okGot, got, p.free, okWant, want, free)
			}
		}
	}
}

// placeOracle is the row rule the packer applied over packJob: the view's
// current row when the packing reproduces it, the shared zero row for a
// job that gets no GPUs, and a fresh row otherwise.
func placeOracle(v *ClusterView, i, g int, free, zero []int) []int {
	row := make([]int, len(free))
	packed := packJob(row, free, g)
	if i < len(v.Current) && slices.Equal(v.Current[i], row) {
		return v.Current[i]
	}
	if !packed {
		return zero
	}
	return row
}

// tiresiasOracle is Tiresias.Schedule as one pass over the view per queue,
// placing through placeOracle.
func tiresiasOracle(t *Tiresias, v *ClusterView, zero []int) ga.Matrix {
	free := slices.Clone(v.Capacity)
	m := make(ga.Matrix, len(v.Jobs))
	for q := 0; q <= len(t.QueueThresholds); q++ {
		for i := range v.Jobs {
			if t.queueOf(v.Jobs[i].GPUTime) == q {
				m[i] = placeOracle(v, i, v.Jobs[i].UserGPUs, free, zero)
			}
		}
	}
	return m
}

// TestPackerRowRuleMatchesOracle holds the rows Tiresias and Optimus
// publish to the oracle's choice, job by job: the kept current row (the
// same slice), the policy's shared zero row, or a fresh slice of the same
// cells that aliases no other row. The views' rows for queued jobs are one
// zero slice shared across rounds, distinct zero slices, the policy's own
// zero row handed back, non-zero rows and rows of the wrong width, and each
// round may carry the last one's result as its current matrix. One policy
// value serves clusters of two widths in turn, so a zero row remembered at
// one width must not be taken for a row of the other.
func TestPackerRowRuleMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []int{5, 70}
	shared := map[int][]int{}
	for _, w := range widths {
		shared[w] = make([]int, w)
	}
	tir, opt := NewTiresias(), NewOptimus(4)
	var last [2]ga.Matrix
	for round := 0; round < 200; round++ {
		wi := round % 2
		w := widths[wi]
		v := &ClusterView{Capacity: make([]int, w)}
		for n := range v.Capacity {
			v.Capacity[n] = rng.Intn(5)
		}
		jobs := 3 + rng.Intn(20)
		for i := 0; i < jobs; i++ {
			v.Jobs = append(v.Jobs, JobView{
				ID: i, Submit: float64(i), UserGPUs: rng.Intn(9) - 1,
				GPUTime: float64(rng.Intn(12)) * 3600,
			})
			var row []int
			switch k := rng.Intn(7); {
			case k == 0 && i < len(last[wi]):
				row = last[wi][i] // the last round's result, zero rows included
			case k <= 1:
				row = shared[w]
			case k == 2:
				row = make([]int, w)
			case k == 3:
				row = tir.pack.zero // the policy's zero row installed by a backend
			case k == 4:
				row = make([]int, w)
				row[rng.Intn(w)] = 1 + rng.Intn(4)
			case k == 5:
				row = make([]int, w+1-2*rng.Intn(2))
			default:
				row = nil
			}
			v.Current = append(v.Current, row)
		}
		if rng.Intn(8) == 0 {
			v.Current = nil // a view without a current matrix
		}
		got := tir.Schedule(v)
		want := tiresiasOracle(tir, v, tir.pack.zero)
		checkRowRule(t, fmt.Sprintf("round %d, tiresias", round), v, got, want, tir.pack.zero)
		last[wi] = got

		// Optimus packs its own demands through the same packer.
		demands := make([]int, len(v.Jobs))
		for i := range demands {
			demands[i] = v.Jobs[i].UserGPUs
		}
		got = opt.pack.packAll(v, demands)
		free := slices.Clone(v.Capacity)
		want = make(ga.Matrix, len(demands))
		order := make([]int, len(demands))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return demands[b] - demands[a] })
		for _, j := range order {
			want[j] = placeOracle(v, j, demands[j], free, opt.pack.zero)
		}
		checkRowRule(t, fmt.Sprintf("round %d, packAll", round), v, got, want, opt.pack.zero)
	}
}

// checkRowRule requires got to publish each job's row as want does: by
// identity for the kept current row and for zero, the policy's zero row,
// and as one fresh slice of want's cells for a job that moved.
func checkRowRule(t *testing.T, at string, v *ClusterView, got, want ga.Matrix, zero []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", at, len(got), len(want))
	}
	fresh := map[*int]bool{}
	for i := range want {
		kept := i < len(v.Current) && ga.SameRow(want[i], v.Current[i])
		switch {
		case kept:
			if !ga.SameRow(got[i], v.Current[i]) {
				t.Fatalf("%s, job %d: got %v, want the view's row %v itself", at, i, got[i], v.Current[i])
			}
		case ga.SameRow(want[i], zero):
			if !ga.SameRow(got[i], zero) {
				t.Fatalf("%s, job %d: got %v, want the shared zero row", at, i, got[i])
			}
		default:
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s, job %d: got %v, want %v", at, i, got[i], want[i])
			}
			for j := range v.Current {
				if ga.SameRow(got[i], v.Current[j]) {
					t.Fatalf("%s, job %d: a moved job got job %d's current row", at, i, j)
				}
			}
			if fresh[&got[i][0]] {
				t.Fatalf("%s, job %d: two moved jobs share one fresh row", at, i)
			}
			fresh[&got[i][0]] = true
		}
	}
}
