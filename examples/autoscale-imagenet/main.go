// Cloud autoscaling: goodput-based vs throughput-based (Fig. 10).
//
// A single large ImageNet-style training job runs in a simulated cloud
// where nodes can be provisioned and released over time. Pollux's
// goodput-based autoscaler holds few nodes while the gradient noise scale
// is small (large batches would waste statistical efficiency) and ramps up
// as training progresses; the Or et al. throughput-based baseline scales
// out immediately and holds the size. The run prints both time series and
// the cost comparison.
//
// Run with: go run ./examples/autoscale-imagenet
package main

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/sim"
)

func main() {
	// ImageNet scaled to 6 statistical epochs so the example finishes in
	// seconds; the phi trajectory (and hence the scaling behaviour) is
	// the same shape as the full 90-epoch run.
	spec := *models.ByName("resnet50")
	spec.Epochs = 6

	base := sim.AutoscaleConfig{
		GPUsPerNode: 4, MinNodes: 1, MaxNodes: 16,
		Tick: 2, Seed: 1, SamplePeriod: 600,
	}

	goodCfg := base
	goodCfg.AdaptBatchGoodput = true
	goodCfg.RespectExploreCap = true
	good := sim.RunAutoscale(&spec, sched.GoodputAutoscaler{}, goodCfg)

	thr := sim.RunAutoscale(&spec, sched.ThroughputAutoscaler{}, base)

	fmt.Println("autoscaling ImageNet (resnet50, 6 statistical epochs), 4 GPUs/node, 1-16 nodes")
	fmt.Println()
	var rows [][]string
	n := max(len(good.Points), len(thr.Points))
	for i := 0; i < n; i++ {
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
		rows = append(rows, row)
	}
	fmt.Print(metrics.Table(
		[]string{"t (s)", "Pollux nodes", "Pollux eff", "Or et al. nodes", "Or et al. eff"},
		rows))

	fmt.Println()
	fmt.Print(metrics.Table(
		[]string{"policy", "completion", "cost (node-h)", "avg efficiency"},
		[][]string{
			{"Pollux (goodput)", metrics.Hours(good.CompletionTime),
				fmt.Sprintf("%.1f", good.CostNodeSeconds/3600), fmt.Sprintf("%.2f", avgEff(good.Points))},
			{"Or et al. (throughput)", metrics.Hours(thr.CompletionTime),
				fmt.Sprintf("%.1f", thr.CostNodeSeconds/3600), fmt.Sprintf("%.2f", avgEff(thr.Points))},
		}))
	fmt.Printf("\ncost ratio %.2f (paper: ~0.75, i.e. 25%% cheaper); time ratio %.2f (paper: ~1.06)\n",
		good.CostNodeSeconds/thr.CostNodeSeconds,
		good.CompletionTime/thr.CompletionTime)
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
