// Package cluster is the in-memory testbed runtime standing in for the
// paper's Kubernetes deployment (Sec. 4.3): nodes with GPUs, pod-like
// replica placements with bind/evict lifecycle and checkpoint-restart, a
// PolluxSched control loop, and a net/rpc boundary over which PolluxAgents
// report goodput functions and receive allocations — the same
// agent/scheduler split as the real system, at laptop scale.
//
// Training itself is simulated: each job's Trainer advances a model-zoo
// spec's ground truth under a configurable time compression, profiling
// noisy iteration times and gradient statistics exactly as the simulator
// does, but across real goroutines and a real network socket.
package cluster

import (
	"sync"

	"repro/internal/runtime"
)

// State is the "API server" of the toy cluster: the placement ledger the
// simulator keeps too, one row per registered job in the slot that is its
// scheduler ID, and the lock that guards it. A Service built over it guards
// its registry with the same lock, so a scheduling round, a report and a
// status read each see the registry and the ledger together. Installed
// rows are never written, so a round's view and the scheduler may hold them
// outside the lock (docs/architecture.md, "Pass budget and ownership").
type State struct {
	mu     sync.Mutex
	ledger *runtime.Ledger
}

// NewState creates a cluster with the given per-node GPU capacities.
func NewState(capacity []int) *State {
	return &State{ledger: runtime.NewLedger(capacity)}
}
