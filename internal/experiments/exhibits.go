package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/results"
)

// exhibit is one entry of the registry: an experiment id, its runner,
// the headline metrics that summarize it (the rows worth a markdown table
// or a benchmark metric, as opposed to the full per-cell series kept in
// the baselines), and the paper's claims about it.
type exhibit struct {
	id        string
	run       func(Scale) (Outcome, error)
	headlines []string
	claims    []claim
}

// claim is one statement the paper makes about an exhibit, written as a
// comparison of two sides over the metrics the exhibit emits
// (Outcome.Values): "a op b", with op one of < <= > >= ==. Each side is
// a sum (+) of products (*) of numbers and metric names, as in
// "2 * tput512/16" or "Tiresias+TunedJobs/degradation + 0.3". Tokens are
// separated by spaces, so a metric name may hold any other character. A
// metric the record lacks breaks the claim, so a renamed metric cannot
// turn a claim into one that always holds.
type claim struct {
	expr  string
	paper string // the paper's value and section, or what an extension shows
}

// says attaches one statement of the paper to each of exprs.
func says(paper string, exprs ...string) []claim {
	out := make([]claim, len(exprs))
	for i, e := range exprs {
		out[i] = claim{e, paper}
	}
	return out
}

// each expands format, whose %[1]s is the key, once per key.
func each(format string, keys ...string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf(format, k)
	}
	return out
}

// closed adapts a closed-form exhibit, which takes no scale.
func closed(f func() Outcome) func(Scale) (Outcome, error) {
	return func(Scale) (Outcome, error) { return f(), nil }
}

// simulated adapts a simulation-backed exhibit that cannot fail.
func simulated(f func(Scale) Outcome) func(Scale) (Outcome, error) {
	return func(sc Scale) (Outcome, error) { return f(sc), nil }
}

// exhibits is the registry, in paper order. The claims' bounds are the
// ones the quick scale meets; the paper's own values, which mostly need
// the full scale, are in each claim's text and in EXPERIMENTS.md.
var exhibits = []exhibit{
	{"fig1a", closed(Fig1a), []string{"scaling512", "scaling2048"},
		says("Fig. 1a (Sec. 2): ResNet-18 scales better with GPUs at batch 2048 than at 512, ~10k vs ~3k ex/s on 16 GPUs",
			"scaling2048 > scaling512", "tput2048/16 >= 2 * tput512/16")},
	{"fig1b", closed(Fig1b), []string{"first/16", "second/16"}, slices.Concat(
		says("Fig. 1b (Sec. 2): the best batch size grows with training progress", each("second/%[1]s >= first/%[1]s", "2", "4", "8", "16")...),
		says("Fig. 1b (Sec. 2): the best batch size grows with allocated GPUs", "second/16 > second/2"))},
	{"fig2a", closed(Fig2a), []string{"e8000/0.0", "e8000/1.0"}, slices.Concat(
		says("Fig. 2a (Sec. 2): a small batch is always at least as efficient as a large one",
			each("e8000/%[1]s <= e800/%[1]s + 1e-9", "0.0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1.0")...),
		says("Fig. 2a (Sec. 2): large-batch efficiency improves severalfold over training", "e8000/1.0 >= 2 * e8000/0.0"))},
	{"fig2b", closed(Fig2b), []string{"phiMeasured", "phiTrue", "maxAbsErr"},
		says("Fig. 2b (Sec. 3.1): Eqn. 7 predicts the actual efficiency closely from a noise scale measured within 1.25x",
			"maxAbsErr <= 0.08", "phiMeasured >= 0.8 * phiTrue", "phiMeasured <= 1.25 * phiTrue")},
	{"fig3", closed(Fig3), []string{"meanRelErr", "rmsle"},
		says("Fig. 3 (Sec. 3.2): the throughput model fits the measured throughput closely", "meanRelErr <= 0.10", "rmsle <= 0.10")},
	{"fig6", closed(Fig6), []string{"peakRatio"},
		says("Fig. 6 (Sec. 5.1): submissions peak at ~3x the first hour's rate", "peakRatio >= 2.4", "peakRatio <= 3.6")},
	{"table2", simulated(Table2), []string{"Pollux/avgJCT", "Optimus+Oracle/avgJCT", "Tiresias+TunedJobs/avgJCT",
		"reductionVsOptimus", "reductionVsTiresias", "Pollux/eff", "Tiresias+TunedJobs/eff"}, slices.Concat(
		says("Table 2 (Sec. 5.2): 37-50% lower avg JCT than the ideally tuned baselines",
			"Pollux/avgJCT > 0", "Pollux/avgJCT < Optimus+Oracle/avgJCT", "Pollux/avgJCT < Tiresias+TunedJobs/avgJCT"),
		says("Sec. 5.2.1: Pollux sustains higher statistical efficiency", "Pollux/eff > Tiresias+TunedJobs/eff"))},
	{"fig7", simulated(Fig7), []string{"Pollux/abs/0", "Pollux/abs/100", "Optimus+Oracle/100", "Tiresias+TunedJobs/100"}, slices.Concat(
		says("Fig. 7 (Sec. 5.3): Pollux is unaffected by user-configured jobs", "Pollux/abs/100 <= 1.4 * Pollux/abs/0"),
		says("Fig. 7 (Sec. 5.3): Tiresias degrades to 3.3x Pollux at 100% user-configured", "Tiresias+TunedJobs/100 > 1.2"))},
	{"fig8", simulated(Fig8), []string{"Pollux/degradation", "Optimus+Oracle/degradation", "Tiresias+TunedJobs/degradation"}, slices.Concat(
		says("Fig. 8 (Sec. 5.3): avg JCT grows with load", each("%[1]s/2.0 >= %[1]s/0.5", "Pollux", "Optimus+Oracle", "Tiresias+TunedJobs")...),
		says("Fig. 8 (Sec. 5.3): at 2x load Pollux degrades 1.8x vs Tiresias's 2.6x", "Pollux/degradation <= Tiresias+TunedJobs/degradation + 0.3"))},
	{"table3", simulated(Table3), []string{"avg/0.5", "p50/0.5", "p99/0.5"}, slices.Concat(
		says("Table 3 (Sec. 5.3): JCTs are relative to λ = 0", "avg/0.0 == 1", "p50/0.0 == 1"),
		says("Table 3 (Sec. 5.3): λ = 0.5 improves p50 JCT to 0.77", "p50/0.5 <= 1.1"))},
	{"fig9", simulated(Fig9), []string{"on/0.50", "off/0.50"}, slices.Concat(
		says("Fig. 9 (Sec. 5.3): with avoidance, avg JCT stays flat under 50% interference slowdown", "on/0.50 <= 1.25"),
		says("Fig. 9 (Sec. 5.3): without avoidance, avg JCT grows to 1.4x at 50% slowdown", "off/0.50 > on/0.50"))},
	{"fig10", simulated(Fig10), []string{"costRatio", "timeRatio", "pollux/avgEff", "oretal/avgEff"},
		says("Fig. 10 (Sec. 5.3.3): goodput-based autoscaling is 25% cheaper, keeping statistical efficiency higher as it scales out",
			"costRatio < 1", "pollux/avgEff > oretal/avgEff")},
	{"diurnal64", simulated(Diurnal64), []string{"Pollux/avgJCT", "Tiresias+TunedJobs/avgJCT", "Pollux/p99JCT", "Tiresias+TunedJobs/p99JCT",
		"Pollux/goodput", "Tiresias+TunedJobs/goodput", "Pollux/completed", "Tiresias+TunedJobs/completed"},
		says("extension of Table 2 to a 64-node diurnal trace: Pollux's tail JCT stays below Tiresias's", "Pollux/p99JCT < Tiresias+TunedJobs/p99JCT")},
	{"fairness", simulated(Fairness), []string{"Pollux/prod/avgJCT", "Tiresias+TunedJobs/prod/avgJCT", "Pollux/prod/sloMet",
		"Pollux/batch/rejected", "Pollux/burst/rejected", "Pollux/prod/queueDepth"},
		says("extension: behind one front end, Pollux meets at least as many of the SLO tenant's deadlines",
			"Pollux/prod/sloMet >= Tiresias+TunedJobs/prod/sloMet")},
	{"replayparity", ReplayParity, []string{"Pollux/dJCT", "Pollux/dGoodput", "Optimus+Oracle/dJCT", "Tiresias+TunedJobs/dJCT"},
		says("extension: the simulator and the testbed replay (Sec. 4.3's control path) agree within 5%", each("%[1]s <= 0.05",
			"Pollux/dJCT", "Pollux/dGoodput", "Optimus+Oracle/dJCT", "Optimus+Oracle/dGoodput", "Tiresias+TunedJobs/dJCT", "Tiresias+TunedJobs/dGoodput")...)},
	{"validate", simulated(Validate), []string{"worstOff"},
		says("extension of Eqn. 7 (Sec. 3.1) to real SGD: predicted and measured examples-to-loss agree within 2.5x", "worstOff <= 2.5")},
	{"mega", simulated(Mega), []string{"reductionAtLargestN", "sim/p99JCT", "sim/goodput", "sim/completed"}, nil},
}

// find returns the registry entry of id.
func find(id string) (exhibit, bool) {
	i := slices.IndexFunc(exhibits, func(e exhibit) bool { return e.id == id })
	if i < 0 {
		return exhibit{}, false
	}
	return exhibits[i], true
}

// All returns every experiment id in paper order.
func All() []string {
	ids := make([]string, len(exhibits))
	for i, e := range exhibits {
		ids[i] = e.id
	}
	return ids
}

// Run dispatches one experiment by id and stamps the outcome with it.
func Run(id string, sc Scale) (Outcome, error) {
	e, ok := find(id)
	if !ok {
		return Outcome{}, fmt.Errorf("unknown experiment %q (have %v)", id, All())
	}
	o, err := e.run(sc)
	o.ID = id
	return o, err
}

// Headlines returns the exhibit-id → headline-metric registry used by
// cmd/pollux-bench's markdown rendering and the root benchmarks.
func Headlines() map[string][]string {
	out := make(map[string][]string, len(exhibits))
	for _, e := range exhibits {
		out[e.id] = slices.Clone(e.headlines)
	}
	return out
}

// BrokenClaims evaluates the paper's claims about rec's exhibit over
// rec's metrics and describes each one that does not hold, with the
// values it read. A record of anything else has no claims to break.
func BrokenClaims(rec results.Record) []string {
	e, _ := find(rec.Exhibit)
	value := func(name string) (float64, bool) {
		m, ok := rec.Metric(name)
		return m.Value, ok
	}
	var broken []string
	for _, c := range e.claims {
		if err := c.check(value); err != nil {
			broken = append(broken, fmt.Sprintf("%s: %q %v; paper: %s", e.id, c.expr, err, c.paper))
		}
	}
	return broken
}

// claimOps are the comparisons a claim may make.
var claimOps = map[string]func(a, b float64) bool{
	"<":  func(a, b float64) bool { return a < b },
	"<=": func(a, b float64) bool { return a <= b },
	">":  func(a, b float64) bool { return a > b },
	">=": func(a, b float64) bool { return a >= b },
	"==": func(a, b float64) bool { return a == b }, //pollux:floateq-ok a claim of equality is exact, as the tests it replaces were
}

// check evaluates the claim, looking its metrics up with value; it
// returns nil when the claim holds.
func (c claim) check(value func(string) (float64, bool)) error {
	var sum [2]float64 // the left and the right side
	var read []string
	side, term, op := 0, 1.0, ""
	for _, tok := range strings.Fields(c.expr) {
		switch {
		case claimOps[tok] != nil && op == "":
			sum[side] += term
			side, term, op = 1, 1, tok
		case tok == "+":
			sum[side] += term
			term = 1
		case tok == "*":
		default:
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				var ok bool
				if v, ok = value(tok); !ok {
					return fmt.Errorf("reads %q, which the record lacks", tok)
				}
				read = append(read, fmt.Sprintf("%s=%g", tok, v))
			}
			term *= v
		}
	}
	sum[side] += term
	if op == "" {
		return errors.New("has no comparison")
	}
	if !claimOps[op](sum[0], sum[1]) {
		return fmt.Errorf("does not hold: %s", strings.Join(read, " "))
	}
	return nil
}
