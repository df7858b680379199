package agent

// Snapshot/Restore for Agent: a restarted scheduler service must not lose
// the fitted θsys models or the profiled observations behind them, or
// every job would re-enter the optimistic-prior cold-start phase and the
// resumed trace would diverge from the uninterrupted one.
//
// The profile map is flattened to a slice sorted by configuration key, so
// the canonical JSON encoding is byte-stable and no map order can leak
// into the checkpoint file.

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// ProfilePoint is one profiled configuration's accumulated observations.
type ProfilePoint struct {
	GPUs     int
	Nodes    int
	Batch    int
	SumTIter float64
	Count    int
}

// Snapshot is the full serializable state of an Agent.
type Snapshot struct {
	M0             int
	Eta0           float64
	MaxBatchPerGPU int
	MaxBatchGlobal int

	// Profile holds the throughput observations, sorted by
	// (GPUs, Nodes, Batch).
	Profile []ProfilePoint `json:",omitempty"`

	Explored   core.Exploration
	Fitted     core.Params
	HasFit     bool
	FitConfigs int
	TotalObs   int
	FitObs     int

	LastPhi float64
}

// Snapshot captures the agent's complete restorable state.
func (a *Agent) Snapshot() *Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := &Snapshot{
		M0:             a.m0,
		Eta0:           a.eta0,
		MaxBatchPerGPU: a.maxBatchPerGPU,
		MaxBatchGlobal: a.maxBatchGlobal,
		Explored:       a.explored,
		Fitted:         a.fitted,
		HasFit:         a.hasFit,
		FitConfigs:     a.fitConfigs,
		TotalObs:       a.totalObs,
		FitObs:         a.fitObs,
		LastPhi:        a.phi,
	}
	//pollux:order-ok profile entries are appended in any order, then fully sorted by (GPUs, Nodes, Batch) below
	for k, e := range a.profile {
		s.Profile = append(s.Profile, ProfilePoint{
			GPUs: k.gpus, Nodes: k.nodes, Batch: k.batch,
			SumTIter: e.sumTIter, Count: e.count,
		})
	}
	sort.Slice(s.Profile, func(i, j int) bool {
		pi, pj := s.Profile[i], s.Profile[j]
		if pi.GPUs != pj.GPUs {
			return pi.GPUs < pj.GPUs
		}
		if pi.Nodes != pj.Nodes {
			return pi.Nodes < pj.Nodes
		}
		return pi.Batch < pj.Batch
	})
	return s
}

// FromSnapshot rebuilds an Agent from a snapshot. The restored agent's
// next Refit, Report, and TuneBatch calls behave exactly as the
// snapshotted one's would have.
func FromSnapshot(s *Snapshot) (*Agent, error) {
	if s.M0 <= 0 {
		return nil, fmt.Errorf("agent: snapshot has non-positive m0 %d", s.M0)
	}
	a := &Agent{
		m0:             s.M0,
		eta0:           s.Eta0,
		maxBatchPerGPU: s.MaxBatchPerGPU,
		maxBatchGlobal: s.MaxBatchGlobal,
		profile:        make(map[profileKey]*profileEntry, len(s.Profile)),
		explored:       s.Explored,
		fitted:         s.Fitted,
		hasFit:         s.HasFit,
		fitConfigs:     s.FitConfigs,
		totalObs:       s.TotalObs,
		fitObs:         s.FitObs,
		phi:            s.LastPhi,
	}
	for _, p := range s.Profile {
		k := profileKey{p.GPUs, p.Nodes, p.Batch}
		if _, dup := a.profile[k]; dup {
			return nil, fmt.Errorf("agent: snapshot profile has duplicate configuration %+v", k)
		}
		a.profile[k] = &profileEntry{sumTIter: p.SumTIter, count: p.Count}
	}
	return a, nil
}
