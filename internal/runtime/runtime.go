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

	"repro/internal/admit"
	"repro/internal/ga"
	"repro/internal/sched"
)

// Backend exposes one deployment's job population to the shared
// scheduling round: the simulator's in-memory job states, or the
// testbed's RPC-attached agents.
//
// Allocation rows cross this interface as immutable values. A row the
// backend puts in view.Current, and a row of the matrix Commit receives,
// is never written again by anyone — backend, Step or policy — so all
// three may hold the same slice and "unchanged" is slice identity. Both
// backends (the service's ledger, the simulator's job states) store the
// committed slice itself and hand that slice out next round.
type Backend interface {
	// Round snapshots the scheduler inputs at simulated time now:
	// per-node capacity, the active jobs in a deterministic order, and
	// the allocation matrix currently in effect (rows aligned with
	// Jobs, never nil for an active job, each valid for the cluster on
	// its own). A backend that tracks per-node usage sets view.Usage.
	//
	// The view is valid until the next Round: a backend may refill and
	// return one ClusterView every time (the simulator does), so Step and
	// the policy keep rows, never the view or its Jobs. The view is not a
	// channel back either. With a front end Step replaces view.Jobs and
	// view.Current by slices of its own, permuted for the policy and
	// restored before Commit, so a backend that reuses buffers keeps them
	// itself and never reads the returned view again.
	Round(now float64) *sched.ClusterView
	// Commit installs an allocation matrix that Step has already
	// validated against the round's capacity, rows aligned with the
	// last Round's jobs; changed[i] reports whether row i differs from
	// the snapshot's Current row (so backends can skip no-op rebinds
	// and charge checkpoint-restart only on real moves). An unchanged
	// m[i] is often view.Current[i] itself.
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
//
// The diff comes first and tests slice identity before cells, so a row
// the policy handed back costs nothing. Validation then reads only the
// changed rows: with view.Usage the capacity check is usage minus the
// changed current rows plus the changed new ones, which accepts and
// refuses what CheckCapacity over the whole matrix would; a backend
// without usage totals gets that whole-matrix pass.
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
	changed := make([]bool, len(m))
	for i := range m {
		changed[i] = !ga.EqualRows(view.Current[i], m[i])
	}
	usage := make([]int, len(view.Capacity))
	pick := []bool(nil) // without usage totals every row is read
	if view.Usage != nil {
		pick = changed
		copy(usage, view.Usage)
		for i, row := range view.Current {
			if changed[i] {
				for n, g := range row {
					usage[n] -= g
				}
			}
		}
	}
	if err := checkRows(view.Capacity, usage, m, pick); err != nil {
		return 0, fmt.Errorf("runtime: policy %s: %w", policy.Name(), err)
	}
	if perm != nil {
		// view.Jobs, view.Current and the diff were permuted alongside;
		// restore the backend's row order.
		orig, current := make(ga.Matrix, len(m)), make(ga.Matrix, len(m))
		jobs, moved := make([]sched.JobView, len(m)), make([]bool, len(m))
		for i, p := range perm {
			orig[p] = m[i]
			current[p] = view.Current[i]
			jobs[p] = view.Jobs[i]
			moved[p] = changed[i]
		}
		m, view.Current, view.Jobs, changed = orig, current, jobs, moved
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
	return checkRows(capacity, make([]int, len(capacity)), m, nil)
}

// checkRows adds the rows of m flagged in pick (every row when pick is
// nil) to usage, refusing one that has not exactly one non-negative entry
// per node, and then refuses any node whose usage exceeds its capacity.
func checkRows(capacity, usage []int, m ga.Matrix, pick []bool) error {
	for i, row := range m {
		if pick != nil && !pick[i] {
			continue
		}
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
