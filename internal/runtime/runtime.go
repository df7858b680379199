// Package runtime is the shared core of the scheduling round that both
// deployments of the control loop execute: the trace-driven simulator
// (internal/sim) and the live-cluster testbed (internal/cluster). The
// paper's system is one loop deployed two ways — a simulator (Sec. 5) and
// a Kubernetes testbed (Sec. 4.3) — and the round itself is identical in
// both: snapshot the goodput reports into scheduler inputs, run the
// GA/heuristic policy, validate the returned matrix, diff it against the
// placements in effect, and commit the changed rows with
// checkpoint-restart accounting. Only the snapshot and commit ends differ
// per deployment, so they are the Backend interface; everything between
// them lives here, once.
package runtime

import (
	"fmt"
	"slices"

	"repro/internal/admit"
	"repro/internal/ga"
	"repro/internal/sched"
)

// Backend exposes one deployment's job population to the shared
// scheduling round: the simulator's in-memory job states, or the
// testbed's RPC-attached agents.
type Backend interface {
	// Round snapshots the scheduler inputs at simulated time now:
	// per-node capacity, the active jobs in a deterministic order, and
	// the allocation matrix currently in effect (rows aligned with
	// Jobs, never nil for an active job).
	Round(now float64) *sched.ClusterView
	// Commit installs an allocation matrix that Step has already
	// validated against the round's capacity, rows aligned with the
	// last Round's jobs; changed[i] reports whether row i differs from
	// the snapshot's Current row (so backends can skip no-op rebinds
	// and charge checkpoint-restart only on real moves).
	Commit(m ga.Matrix, changed []bool) error
}

// Step runs one scheduling round over the backend: snapshot, front-end
// priority ordering, policy optimization, matrix validation, placement
// diff, commit. fe is the deployment's admit front end; nil means no
// front end (the snapshot order reaches the policy untouched). It
// returns the number of jobs scheduled. A malformed, negative or
// oversubscribing policy result aborts the round with an error before
// any row is applied, so a failed round never leaves the backend
// half-committed.
func Step(b Backend, fe *admit.FrontEnd, policy sched.Policy, now float64) (int, error) {
	view := b.Round(now)
	if len(view.Jobs) == 0 {
		return 0, nil
	}
	// The priority stage permutes the snapshot the policy sees; the
	// matrix is un-permuted before commit so backends always receive rows
	// in their own Round order.
	perm := fe.Order(view)
	m := policy.Schedule(view)
	if len(m) != len(view.Jobs) {
		return 0, fmt.Errorf("runtime: policy %s returned %d rows for %d jobs",
			policy.Name(), len(m), len(view.Jobs))
	}
	if err := CheckCapacity(view.Capacity, m); err != nil {
		return 0, fmt.Errorf("runtime: policy %s: %w", policy.Name(), err)
	}
	if perm != nil {
		orig := make(ga.Matrix, len(m))
		for i, p := range perm {
			orig[p] = m[i]
		}
		m = orig
		// view.Current rows were permuted alongside view.Jobs; restore
		// the backend's row order for the placement diff below.
		current := make(ga.Matrix, len(view.Current))
		jobs := make([]sched.JobView, len(view.Jobs))
		for i, p := range perm {
			current[p] = view.Current[i]
			jobs[p] = view.Jobs[i]
		}
		view.Current = current
		view.Jobs = jobs
	}
	changed := make([]bool, len(m))
	for i := range m {
		changed[i] = !slices.Equal(view.Current[i], m[i])
	}
	if err := b.Commit(m, changed); err != nil {
		return 0, err
	}
	fe.ObserveRound(view, m)
	return len(view.Jobs), nil
}

// CheckCapacity verifies, in one pass over the rows, that each has one
// non-negative entry per node and that together they oversubscribe none.
func CheckCapacity(capacity []int, m ga.Matrix) error {
	usage := make([]int, len(capacity))
	for i, row := range m {
		if len(row) != len(capacity) {
			return fmt.Errorf("row %d has %d nodes, cluster has %d", i, len(row), len(capacity))
		}
		for n, g := range row {
			if g < 0 {
				return fmt.Errorf("row %d node %d negative: %d", i, n, g)
			}
			usage[n] += g
		}
	}
	for n, c := range capacity {
		if usage[n] > c {
			return fmt.Errorf("node %d oversubscribed: %d > %d", n, usage[n], c)
		}
	}
	return nil
}
