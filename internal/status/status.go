// Package status is the read-only observability surface of the scheduler
// daemons: a Registry that the scheduling loop feeds one ObserveRound
// call per round, served over HTTP as JSON (/status) and Prometheus-style
// text (/metrics).
//
// The registry is strictly an observer. Handlers read a lock-snapshot of
// the counters and the optional cluster source; they never touch the
// scheduling path, so enabling the endpoint cannot change a fixed-seed
// run's results (pinned by TestStatusEndpointDoesNotPerturbRun). The
// package is deliberately outside the deterministic core — it is the one
// place wall-clock latency measurements belong.
package status

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/sched"
)

// Tenant is one tenant's admission counters as served by the endpoint.
type Tenant struct {
	Name          string
	Submitted     int
	Admitted      int
	Rejected      int
	AvgQueueDepth float64
}

// Cluster is the cluster-occupancy half of a status snapshot, assembled
// on demand by the daemon's source callback (cluster.Service.Status is
// one). Queue depths live here: Pending is the number of
// admitted jobs the last committed allocation left without GPUs.
type Cluster struct {
	Nodes     int
	GPUsTotal int
	GPUsUsed  int
	Usage     []int
	Jobs      int
	Running   int
	Pending   int
	Done      int
	Admission string
	Priority  string
	Tenants   []Tenant
}

// Latency aggregates per-round wall-clock scheduling latency in seconds.
type Latency struct {
	Count int64
	Sum   float64
	Max   float64
	Avg   float64
}

// Snapshot is the JSON document served at /status.
type Snapshot struct {
	Policy        string
	Rounds        int64
	LastRoundTime float64 // simulated seconds of the latest round
	LastScheduled int     // jobs placed by the latest round
	LastError     string  `json:",omitempty"`
	RoundLatency  Latency
	// RoundStats is the Pollux scheduler's per-round work breakdown
	// (zero-valued for policies that do not report one).
	RoundStats sched.RoundStats
	Cluster    *Cluster `json:",omitempty"`
}

// Registry accumulates round observations and serves them. All methods
// are safe for concurrent use; the HTTP handlers never block the loop
// feeding ObserveRound for longer than the snapshot copy.
type Registry struct {
	mu            sync.Mutex
	policy        string
	rounds        int64
	lastTime      float64
	lastScheduled int
	lastErr       string
	latCount      int64
	latSum        float64
	latMax        float64
	stats         sched.RoundStats
	source        func() Cluster
}

// New creates a registry for a daemon running the named policy.
func New(policy string) *Registry {
	return &Registry{policy: policy}
}

// SetSource installs the callback that assembles the cluster half of the
// snapshot at request time; nil (the default) omits it.
func (r *Registry) SetSource(source func() Cluster) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.source = source
}

// ObserveRound records one scheduling round: its simulated time, the
// number of jobs placed, its wall-clock latency in seconds, the policy's
// per-round stats, and its error if it failed.
func (r *Registry) ObserveRound(now float64, scheduled int, latencySeconds float64, stats sched.RoundStats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds++
	r.lastTime = now
	r.lastScheduled = scheduled
	r.lastErr = ""
	if err != nil {
		r.lastErr = err.Error()
	}
	r.latCount++
	r.latSum += latencySeconds
	if latencySeconds > r.latMax {
		r.latMax = latencySeconds
	}
	r.stats = stats
}

// Snapshot copies the current state, evaluating the cluster source.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		Policy:        r.policy,
		Rounds:        r.rounds,
		LastRoundTime: r.lastTime,
		LastScheduled: r.lastScheduled,
		LastError:     r.lastErr,
		RoundLatency: Latency{
			Count: r.latCount,
			Sum:   r.latSum,
			Max:   r.latMax,
		},
		RoundStats: r.stats,
	}
	source := r.source
	r.mu.Unlock()
	if s.RoundLatency.Count > 0 {
		s.RoundLatency.Avg = s.RoundLatency.Sum / float64(s.RoundLatency.Count)
	}
	// The source takes the daemon's own report lock; call it outside ours
	// so the two can never entangle.
	if source != nil {
		c := source()
		s.Cluster = &c
	}
	return s
}

// Handler returns a mux serving /status (JSON) and /metrics
// (Prometheus-style text).
func (r *Registry) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", r.serveJSON)
	mux.HandleFunc("/metrics", r.serveMetrics)
	return mux
}

func (r *Registry) serveJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Snapshot())
}

func (r *Registry) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	s := r.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder

	// One HELP/TYPE header per metric name, then its series — the text
	// exposition format Prometheus scrapers expect.
	metric := func(name, typ, help string, series ...string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, line := range series {
			fmt.Fprintf(&b, "%s%s\n", name, line)
		}
	}
	metric("pollux_build_info", "gauge", "Scheduler policy in use.",
		fmt.Sprintf(`{policy=%q} 1`, s.Policy))
	metric("pollux_rounds_total", "counter", "Scheduling rounds executed.",
		fmt.Sprintf(" %d", s.Rounds))
	metric("pollux_last_round_sim_seconds", "gauge", "Simulated time of the latest round.",
		fmt.Sprintf(" %g", s.LastRoundTime))
	metric("pollux_last_round_scheduled_jobs", "gauge", "Jobs placed by the latest round.",
		fmt.Sprintf(" %d", s.LastScheduled))
	metric("pollux_round_latency_seconds_sum", "counter", "Total wall-clock scheduling latency.",
		fmt.Sprintf(" %g", s.RoundLatency.Sum))
	metric("pollux_round_latency_seconds_count", "counter", "Rounds measured for latency.",
		fmt.Sprintf(" %d", s.RoundLatency.Count))
	metric("pollux_round_latency_seconds_max", "gauge", "Largest single-round latency observed.",
		fmt.Sprintf(" %g", s.RoundLatency.Max))

	metric("pollux_round_jobs", "gauge", "Jobs in the latest round's view.",
		fmt.Sprintf(" %d", s.RoundStats.Jobs))
	metric("pollux_round_replaced_jobs", "gauge", "Jobs re-placed by the latest round.",
		fmt.Sprintf(" %d", s.RoundStats.Sub))
	metric("pollux_round_racks_refined", "gauge", "Racks refined by the latest hierarchical round.",
		fmt.Sprintf(" %d", s.RoundStats.Racks))
	metric("pollux_round_full", "gauge", "Whether the latest round fully re-optimized (1) or ran incrementally (0).",
		fmt.Sprintf(" %d", b2i(s.RoundStats.Full)))
	metric("pollux_round_skipped", "gauge", "Whether the latest round skipped GA work on an empty dirty set.",
		fmt.Sprintf(" %d", b2i(s.RoundStats.Skipped)))
	metric("pollux_round_fitness_calls", "gauge", "GA members scored in the latest round, a copied score included.",
		fmt.Sprintf(" %d", s.RoundStats.FitnessCalls))
	metric("pollux_round_fitness_cells", "gauge", "GA fitness cells scored in the latest round.",
		fmt.Sprintf(" %d", s.RoundStats.FitnessCells))

	if c := s.Cluster; c != nil {
		metric("pollux_cluster_nodes", "gauge", "Nodes in the managed cluster.",
			fmt.Sprintf(" %d", c.Nodes))
		metric("pollux_cluster_gpus_total", "gauge", "GPUs in the managed cluster.",
			fmt.Sprintf(" %d", c.GPUsTotal))
		metric("pollux_cluster_gpus_used", "gauge", "GPUs currently allocated.",
			fmt.Sprintf(" %d", c.GPUsUsed))
		metric("pollux_jobs", "gauge", "Registered jobs by state.",
			fmt.Sprintf(`{state="running"} %d`, c.Running),
			fmt.Sprintf(`{state="pending"} %d`, c.Pending),
			fmt.Sprintf(`{state="done"} %d`, c.Done))
		metric("pollux_admission_info", "gauge", "Admission and priority policies in use.",
			fmt.Sprintf(`{admission=%q,priority=%q} 1`, c.Admission, c.Priority))
		tenants := append([]Tenant(nil), c.Tenants...)
		sort.Slice(tenants, func(i, j int) bool { return tenants[i].Name < tenants[j].Name })
		var sub, adm, rej, depth []string
		for _, t := range tenants {
			l := fmt.Sprintf(`{tenant=%q}`, t.Name)
			sub = append(sub, fmt.Sprintf("%s %d", l, t.Submitted))
			adm = append(adm, fmt.Sprintf("%s %d", l, t.Admitted))
			rej = append(rej, fmt.Sprintf("%s %d", l, t.Rejected))
			depth = append(depth, fmt.Sprintf("%s %g", l, t.AvgQueueDepth))
		}
		if len(tenants) > 0 {
			metric("pollux_tenant_submitted_total", "counter", "Jobs presented to admission, by tenant.", sub...)
			metric("pollux_tenant_admitted_total", "counter", "Jobs admitted, by tenant.", adm...)
			metric("pollux_tenant_rejected_total", "counter", "Jobs rejected, by tenant.", rej...)
			metric("pollux_tenant_avg_queue_depth", "gauge", "Mean jobs queued without GPUs per round, by tenant.", depth...)
		}
	}
	w.Write([]byte(b.String()))
}

// b2i renders a bool as a 0/1 metric value.
func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
