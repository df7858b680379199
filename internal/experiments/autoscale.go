package experiments

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Fig10 reproduces Fig. 10 and the Sec. 5.3.3 headline: goodput-based
// cloud autoscaling (Pollux) vs throughput-based autoscaling (Or et al.)
// for ImageNet training — node count and statistical efficiency over time,
// plus the cost/completion-time comparison.
func Fig10(sc Scale) Outcome {
	spec := *models.ByName("resnet50")
	if sc.AutoscaleEpochs > 0 {
		spec.Epochs = sc.AutoscaleEpochs
	}

	cfg := sim.AutoscaleConfig{
		GPUsPerNode: sc.GPUsPerNode,
		MinNodes:    1, MaxNodes: 16,
		Tick: sc.Tick, Seed: sc.Seeds[0],
	}
	goodCfg := cfg
	goodCfg.AdaptBatchGoodput = true
	goodCfg.RespectExploreCap = true
	good := sim.RunAutoscale(&spec, sched.GoodputAutoscaler{}, goodCfg)

	thrCfg := cfg
	thr := sim.RunAutoscale(&spec, sched.ThroughputAutoscaler{}, thrCfg)

	o := Outcome{
		Title:    "Autoscaling ImageNet: goodput-based (Pollux) vs throughput-based (Or et al.)",
		Header:   []string{"time (s)", "nodes (Pollux)", "eff (Pollux)", "nodes (Or et al.)", "eff (Or et al.)"},
		Policies: []string{"GoodputAutoscaler", "ThroughputAutoscaler"},
		Seeds:    []int64{sc.Seeds[0]},
		RelTol:   simRelTol,
	}
	// Align the two time series onto the longer run's sample grid.
	n := len(good.Points)
	if len(thr.Points) > n {
		n = len(thr.Points)
	}
	step := 1
	if n > 24 {
		step = n / 24 // keep the printed table readable
	}
	for i := 0; i < n; i += step {
		row := []string{"", "-", "-", "-", "-"}
		if i < len(good.Points) {
			p := good.Points[i]
			row[0] = fmt.Sprintf("%.0f", p.Time)
			row[1] = fmt.Sprint(p.Nodes)
			row[2] = fmt.Sprintf("%.2f", p.Efficiency)
		}
		if i < len(thr.Points) {
			p := thr.Points[i]
			if row[0] == "" {
				row[0] = fmt.Sprintf("%.0f", p.Time)
			}
			row[3] = fmt.Sprint(p.Nodes)
			row[4] = fmt.Sprintf("%.2f", p.Efficiency)
		}
		o.Rows = append(o.Rows, row)
	}

	costRatio := good.CostNodeSeconds / thr.CostNodeSeconds
	timeRatio := good.CompletionTime / thr.CompletionTime
	o.setUnit("pollux/cost", "node-s", good.CostNodeSeconds)
	o.setUnit("oretal/cost", "node-s", thr.CostNodeSeconds)
	o.setUnit("pollux/time", "s", good.CompletionTime)
	o.setUnit("oretal/time", "s", thr.CompletionTime)
	o.setUnit("costRatio", "x", costRatio)
	o.setUnit("timeRatio", "x", timeRatio)
	o.setUnit("pollux/avgEff", "frac", avgEff(good.Points))
	o.setUnit("oretal/avgEff", "frac", avgEff(thr.Points))
	o.Notes = append(o.Notes, fmt.Sprintf(
		"cost: Pollux %.0f node-s vs Or et al. %.0f node-s (%.0f%% cheaper); completion %.0fs vs %.0fs (%.0f%% longer)",
		good.CostNodeSeconds, thr.CostNodeSeconds, 100*(1-costRatio),
		good.CompletionTime, thr.CompletionTime, 100*(timeRatio-1)))
	o.Notes = append(o.Notes,
		"paper: 25% cheaper with 6% longer completion; Pollux ramps nodes as statistical efficiency grows")
	return o
}

func avgEff(pts []sim.AutoscalePoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range pts {
		s += p.Efficiency
	}
	return s / float64(len(pts))
}
