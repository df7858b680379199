package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gns"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/workload"
)

func packed(gpus, perNode int) core.Placement {
	return core.Placement{GPUs: gpus, Nodes: (gpus + perNode - 1) / perNode}
}

// Fig1a reproduces Fig. 1a: throughput vs number of GPUs for ResNet-18 on
// CIFAR-10 at batch sizes 512 and 2048 — job scalability depends on the
// batch size.
func Fig1a() Outcome {
	spec := models.ByName("resnet18")
	o := Outcome{
		Title:  "Throughput vs GPUs by batch size (ResNet-18/CIFAR-10)",
		Header: []string{"gpus", "imgs/s @512", "imgs/s @2048"},
	}
	for _, k := range []int{1, 2, 4, 8, 12, 16} {
		pl := packed(k, 4)
		t512 := spec.Truth.Throughput(pl, 512)
		t2048 := spec.Truth.Throughput(pl, 2048)
		o.Rows = append(o.Rows, []string{
			fmt.Sprint(k), fmt.Sprintf("%.0f", t512), fmt.Sprintf("%.0f", t2048),
		})
		o.setUnit(fmt.Sprintf("tput512/%d", k), "ex/s", t512)
		o.setUnit(fmt.Sprintf("tput2048/%d", k), "ex/s", t2048)
	}
	gain512 := o.Values["tput512/16"] / o.Values["tput512/1"]
	gain2048 := o.Values["tput2048/16"] / o.Values["tput2048/1"]
	o.setUnit("scaling512", "x", gain512)
	o.setUnit("scaling2048", "x", gain2048)
	o.Notes = append(o.Notes, fmt.Sprintf(
		"16-GPU scaling: %.1fx at batch 512 vs %.1fx at batch 2048 (paper: larger batch scales better)",
		gain512, gain2048))
	return o
}

// Fig1b reproduces Fig. 1b: the most efficient (goodput-optimal) batch
// size by GPU count, for the first and second half of training.
func Fig1b() Outcome {
	spec := models.ByName("resnet18")
	o := Outcome{
		Title:  "Best batch size vs GPUs by training stage (ResNet-18/CIFAR-10)",
		Header: []string{"gpus", "best batch (first half)", "best batch (second half)"},
	}
	for _, k := range []int{2, 4, 8, 16} {
		pl := packed(k, 4)
		first := spec.GoodputModel(0.25)
		second := spec.GoodputModel(0.75)
		mf, _, _ := first.OptimalBatch(pl)
		ms, _, _ := second.OptimalBatch(pl)
		o.Rows = append(o.Rows, []string{fmt.Sprint(k), fmt.Sprint(mf), fmt.Sprint(ms)})
		o.setUnit(fmt.Sprintf("first/%d", k), "examples", float64(mf))
		o.setUnit(fmt.Sprintf("second/%d", k), "examples", float64(ms))
	}
	o.Notes = append(o.Notes,
		"paper: the best batch size grows with allocated GPUs and with training progress")
	return o
}

// Fig2a reproduces Fig. 2a: statistical efficiency over training progress
// for small vs large batch sizes (ResNet-50/ImageNet), with the jumps at
// the learning-rate decay epochs.
func Fig2a() Outcome {
	spec := models.ByName("resnet50")
	o := Outcome{
		Title:  "Statistical efficiency vs progress (ResNet-50/ImageNet)",
		Header: []string{"progress", "eff @m=800", "eff @m=8000"},
	}
	for p := 0.0; p <= 1.0001; p += 0.1 {
		phi := spec.Phi(p)
		e800 := core.Efficiency(phi, spec.M0, 800)
		e8000 := core.Efficiency(phi, spec.M0, 8000)
		o.Rows = append(o.Rows, []string{
			fmt.Sprintf("%.1f", p), fmt.Sprintf("%.3f", e800), fmt.Sprintf("%.3f", e8000),
		})
		o.setUnit(fmt.Sprintf("e800/%.1f", p), "frac", e800)
		o.setUnit(fmt.Sprintf("e8000/%.1f", p), "frac", e8000)
	}
	o.Notes = append(o.Notes,
		"efficiency gap between batch sizes narrows late in training; decay milestones jump it upward")
	return o
}

// Fig2b reproduces Fig. 2b: efficiency predicted by Eqn. 7 from a noise
// scale *measured* (via the gns estimators on synthetic per-replica
// gradients) at one batch size, compared with the ground-truth efficiency
// across a range of batch sizes.
func Fig2b() Outcome {
	spec := models.ByName("resnet50")
	const measureProgress = 15.0 / 90.0 // phi measured at epoch 15
	phiTrue := spec.Phi(measureProgress)

	// Measure phi with the replica estimator at batch 4000 (8 replicas
	// of 500), from synthetic gradients with the matching noise scale.
	rng := rand.New(rand.NewSource(42))
	const dim, muSq = 64, 1.0
	exVar := phiTrue * muSq
	mu := make([]float64, dim)
	for i := range mu {
		mu[i] = math.Sqrt(muSq / dim)
	}
	tr := gns.NewTracker(0.995)
	for it := 0; it < 1500; it++ {
		local := make([][]float64, 8)
		for r := range local {
			g := make([]float64, dim)
			sd := math.Sqrt(exVar / dim / 500)
			for i := range g {
				g[i] = mu[i] + rng.NormFloat64()*sd
			}
			local[r] = g
		}
		e, _ := gns.FromReplicas(local, 500)
		tr.Observe(e)
	}
	phiMeasured := tr.NoiseScale()

	o := Outcome{
		Title:  "Actual vs Eqn.7-predicted efficiency across batch sizes (ResNet-50)",
		Header: []string{"batch", "actual", "predicted"},
	}
	maxErr := 0.0
	for m := 512; m <= 16384; m *= 2 {
		actual := core.Efficiency(phiTrue, spec.M0, m)
		pred := core.Efficiency(phiMeasured, spec.M0, m)
		if e := math.Abs(pred - actual); e > maxErr {
			maxErr = e
		}
		o.Rows = append(o.Rows, []string{
			fmt.Sprint(m), fmt.Sprintf("%.3f", actual), fmt.Sprintf("%.3f", pred),
		})
		o.setUnit(fmt.Sprintf("actual/%d", m), "frac", actual)
		o.setUnit(fmt.Sprintf("pred/%d", m), "frac", pred)
	}
	o.set("phiTrue", phiTrue)
	o.set("phiMeasured", phiMeasured)
	o.set("maxAbsErr", maxErr)
	o.Notes = append(o.Notes, fmt.Sprintf(
		"phi measured at batch 4000: %.0f (true %.0f); max |pred-actual| = %.3f (paper: close agreement)",
		phiMeasured, phiTrue, maxErr))
	return o
}

// Fig3 reproduces Fig. 3: the throughput model fit to noisy measured
// values, shown against ground truth vs node count (3a) and vs batch size
// (3b).
func Fig3() Outcome {
	spec := models.ByName("resnet50")
	rng := rand.New(rand.NewSource(7))

	// Observations over a grid of placements and batch sizes, with the
	// simulator's measurement noise.
	var samples []core.Sample
	for _, k := range []int{1, 2, 4, 8, 12, 16, 24, 32} {
		pl := packed(k, 4)
		for m := 128; m <= k*spec.MaxBatchPerGPU && m <= 8192; m *= 2 {
			ti := spec.Truth.TIter(pl, float64(m)) * (1 + sim.NoiseFrac*(rng.Float64()*2-1))
			samples = append(samples, core.Sample{Placement: pl, Batch: m, TIter: ti})
		}
	}
	fit := core.Fit(samples, core.Params{}, core.Exploration{MaxGPUs: 32, MaxNodes: 8})

	o := Outcome{
		Title:  "Throughput model fit (ResNet-50): actual vs model",
		Header: []string{"sweep", "x", "actual imgs/s", "model imgs/s"},
		// The fit itself is deterministic, but optimizer tweaks (warm
		// starts, line-search changes) legitimately move the minimum at
		// the percent level, so the gate grants a small band rather than
		// the exact match the other closed-form exhibits get.
		RelTol: 0.02,
	}
	sumRelErr, n := 0.0, 0
	// 3a: throughput vs nodes at batch 2048 (4 GPUs per node).
	for nodes := 1; nodes <= 8; nodes++ {
		pl := core.Placement{GPUs: nodes * 4, Nodes: nodes}
		actual := spec.Truth.Throughput(pl, 2048)
		model := fit.Throughput(pl, 2048)
		sumRelErr += math.Abs(model-actual) / actual
		n++
		o.Rows = append(o.Rows, []string{
			"nodes", fmt.Sprint(nodes), fmt.Sprintf("%.0f", actual), fmt.Sprintf("%.0f", model),
		})
	}
	// 3b: throughput vs batch size on 4 nodes.
	pl := core.Placement{GPUs: 16, Nodes: 4}
	for m := 512; m <= 3072; m += 512 {
		actual := spec.Truth.Throughput(pl, float64(m))
		model := fit.Throughput(pl, float64(m))
		sumRelErr += math.Abs(model-actual) / actual
		n++
		o.Rows = append(o.Rows, []string{
			"batch", fmt.Sprint(m), fmt.Sprintf("%.0f", actual), fmt.Sprintf("%.0f", model),
		})
	}
	meanErr := sumRelErr / float64(n)
	o.setUnit("meanRelErr", "frac", meanErr)
	o.set("rmsle", core.RMSLE(fit, samples))
	o.Notes = append(o.Notes, fmt.Sprintf(
		"mean relative error of fit across both sweeps: %.1f%% (paper: model represents data closely)",
		100*meanErr))
	return o
}

// Fig6 reproduces Fig. 6: job submissions per hour of the synthetic
// workload's diurnal pattern.
func Fig6() Outcome {
	rng := rand.New(rand.NewSource(6))
	tr := workload.Generate(rng, workload.Options{Jobs: 4000})
	counts := tr.HourlyCounts()
	o := Outcome{
		Title:  "Job submissions per hour (diurnal pattern)",
		Header: []string{"hour", "submissions", "histogram"},
	}
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	for h, c := range counts {
		bar := histBar(int(math.Round(40 * float64(c) / float64(peak))))
		o.Rows = append(o.Rows, []string{fmt.Sprint(h + 1), fmt.Sprint(c), bar})
		o.setUnit(fmt.Sprintf("hour/%d", h+1), "jobs", float64(c))
	}
	o.setUnit("peakRatio", "x", float64(counts[3])/float64(counts[0]))
	o.Notes = append(o.Notes, fmt.Sprintf(
		"hour-4 peak is %.1fx the hour-1 rate (paper: 3x)", o.Values["peakRatio"]))
	return o
}

func histBar(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
