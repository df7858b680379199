// Package experiments regenerates every table and figure of the Pollux
// paper's evaluation (Sec. 5). Each experiment returns an Outcome with the
// same rows/series the paper reports; cmd/pollux-bench prints them and the
// repository-root benchmarks run them at reduced scale. The exhibit table
// (exhibits.go) registers each one with its headline metrics and the
// paper's claims about it.
//
// Absolute numbers differ from the paper — the substrate here is the
// simulator over the synthetic model zoo, not the authors' 64-GPU
// testbed — but the shapes (who wins, by what factor, where crossovers
// fall) are the reproduction target; see EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/results"
)

// Outcome is one regenerated table or figure.
type Outcome struct {
	ID     string // the exhibit's id, e.g. "table2"; Run sets it
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Values holds machine-readable results keyed by experiment-specific
	// names, consumed by tests and EXPERIMENTS.md tooling.
	Values map[string]float64

	// Results-pipeline metadata (see internal/results). Policies and
	// Seeds identify the configuration axes behind the numbers; RelTol
	// is the default per-metric tolerance band granted to this exhibit
	// by the baseline regression gate. Closed-form exhibits leave it 0
	// (exact match — any drift is a behavior change, including rng
	// draw-order perturbations, which are load-bearing here), while
	// sim-backed exhibits carry a small band because intentional model
	// changes legitimately move trajectories at the last digits.
	Policies []string
	Seeds    []int64
	RelTol   float64
	units    map[string]string
	tols     map[string]tolBand
	volatile map[string]bool
}

type tolBand struct{ rel, abs float64 }

// simRelTol is the default baseline-gate band for simulation-backed
// exhibits: wide enough that an intentional last-digit perturbation of
// the fitted models (the warm-refit cadence moved exhibit values there
// in PR 3) does not trip the gate, narrow enough that losing a policy's
// ordering or a percent-level scheduling regression does.
const simRelTol = 0.05

// String renders the outcome as an aligned text table.
func (o Outcome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", o.ID, o.Title)
	b.WriteString(metrics.Table(o.Header, o.Rows))
	for _, n := range o.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func (o *Outcome) set(key string, v float64) {
	if o.Values == nil {
		o.Values = make(map[string]float64)
	}
	o.Values[key] = v
}

// setUnit records a metric with a unit ("s", "ex/s", "x", ...).
func (o *Outcome) setUnit(key, unit string, v float64) {
	o.set(key, v)
	if o.units == nil {
		o.units = make(map[string]string)
	}
	o.units[key] = unit
}

// setVolatileUnit records a wall-clock-style measurement that varies run
// to run on an unchanged tree: the baseline gate checks it exists but
// never compares its value, and Canonical zeroes it (see results.Metric).
func (o *Outcome) setVolatileUnit(key, unit string, v float64) {
	o.setUnit(key, unit, v)
	if o.volatile == nil {
		o.volatile = make(map[string]bool)
	}
	o.volatile[key] = true
}

// setTol overrides the exhibit-default tolerance band for one metric:
// |v-base| <= rel*max(|v|,|base|) + abs. Used where a relative band is
// the wrong shape — e.g. parity deltas that hover near zero get an
// absolute band instead.
func (o *Outcome) setTol(key string, rel, abs float64) {
	if o.tols == nil {
		o.tols = make(map[string]tolBand)
	}
	o.tols[key] = tolBand{rel: rel, abs: abs}
}

// Record converts the outcome into the typed form consumed by the
// results pipeline (JSON emission, baseline gate). Metrics are sorted by
// name so emission does not depend on map iteration order.
func (o Outcome) Record(scale string) results.Record {
	r := results.Record{
		Exhibit:  o.ID,
		Title:    o.Title,
		Scale:    scale,
		Policies: append([]string(nil), o.Policies...),
		Seeds:    append([]int64(nil), o.Seeds...),
		Notes:    append([]string(nil), o.Notes...),
	}
	keys := make([]string, 0, len(o.Values))
	//pollux:order-ok keys are sorted right after the loop
	for k := range o.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := results.Metric{Name: k, Value: o.Values[k], Unit: o.units[k], RelTol: o.RelTol}
		if t, ok := o.tols[k]; ok {
			m.RelTol, m.AbsTol = t.rel, t.abs
		}
		m.Volatile = o.volatile[k]
		r.Metrics = append(r.Metrics, m)
	}
	return r
}

// Scale controls the cost of the simulation-backed experiments.
type Scale struct {
	Jobs        int
	Hours       float64
	Nodes       int
	GPUsPerNode int
	Seeds       []int64
	Tick        float64
	PolluxPop   int
	PolluxGens  int
	// AutoscaleEpochs shrinks the ImageNet job for Fig. 10.
	AutoscaleEpochs float64
	// Days is the submission window of the Diurnal64 exhibit (64 nodes,
	// multi-day inhomogeneous-Poisson arrivals); Jobs scales with it as
	// the expected submissions per day.
	Days float64
	// MegaNodes are the cluster sizes of the mega exhibit's scheduling-
	// round sweep (one full-vs-incremental round comparison per entry);
	// MegaJobs is the job count of that sweep, and MegaSimJobs the
	// (smaller) job count of its end-to-end JCT simulation, which runs at
	// MegaNodes[0]. A full simulation at MegaJobs would take hours on one
	// core, so the 10k-job claim is carried by the round sweep and the
	// JCT claim by a reduced trace — see mega.go.
	MegaNodes   []int
	MegaJobs    int
	MegaSimJobs int
}

// QuickScale finishes in seconds on the event engine; used by
// `go test -bench` and the default test run. AutoscaleEpochs is 4 rather
// than 1 because a single shrunk epoch finishes before the autoscalers'
// ramp dynamics can differentiate (the cost ratio straddles 1.0).
func QuickScale() Scale {
	return Scale{
		Jobs: 30, Hours: 1.5, Nodes: 8, GPUsPerNode: 4,
		Seeds: []int64{1, 2}, Tick: 4,
		PolluxPop: 20, PolluxGens: 10,
		AutoscaleEpochs: 4,
		Days:            1,
		MegaNodes:       []int{32, 64},
		MegaJobs:        192,
		MegaSimJobs:     40,
	}
}

// FullScale approximates the paper's setup (160 jobs / 8 h / 16 nodes x 4
// GPUs, 8 seeds). GA parameters are reduced from the paper's 100x100 to
// keep full runs in minutes; the GA converges long before that budget on
// these cluster sizes.
func FullScale() Scale {
	return Scale{
		Jobs: 160, Hours: 8, Nodes: 16, GPUsPerNode: 4,
		Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}, Tick: 2,
		PolluxPop: 50, PolluxGens: 30,
		AutoscaleEpochs: 8,
		// 2 days keeps the diurnal64 exhibit in single-digit minutes on a
		// multi-core host (a 3-day run measured ~25 min on one core; see
		// EXPERIMENTS.md).
		Days:        2,
		MegaNodes:   []int{512, 1024},
		MegaJobs:    10240,
		MegaSimJobs: 2000,
	}
}

// MegaScale is the mega preset for standalone runs (pollux-sim -scale
// mega, or pollux-bench -scale mega -exhibits mega): the full-scale mega
// dimensions with a single seed and full-scale GA parameters, without
// dragging the 8-seed full sweep behind it.
func MegaScale() Scale {
	sc := FullScale()
	sc.Seeds = []int64{1}
	sc.Nodes = sc.MegaNodes[0]
	sc.Jobs = sc.MegaSimJobs
	sc.Hours = 24
	return sc
}

// ScaleByName resolves the scale presets exposed by the command-line
// tools (see internal/cliutil).
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return QuickScale(), nil
	case "full":
		return FullScale(), nil
	case "mega":
		return MegaScale(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want quick, full, or mega)", name)
}
