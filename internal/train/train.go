// Package train is a real data-parallel SGD training substrate: replicas
// are goroutines, gradients are computed from actual per-example losses on
// synthetic datasets, synchronization goes through internal/allreduce, the
// gradient noise scale is measured from the real per-replica gradients
// (internal/gns), and the learning rate is scaled with AdaScale
// (internal/adascale).
//
// The Pollux paper's evaluation replays profiles of real DL training; this
// package provides the closest from-scratch equivalent: optimization
// problems whose statistical behaviour (gradient noise, batch-size
// efficiency, noise-scale growth during training) emerges from actual SGD
// rather than being scripted. It backs the end-to-end validation that
// EFFICIENCY_t(m) = (phi+m0)/(phi+m) predicts examples-to-target across
// batch sizes (the validate experiment and internal/train tests).
package train

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/adascale"
	"repro/internal/allreduce"
	"repro/internal/gns"
)

// Dataset is a supervised dataset with dense features.
type Dataset struct {
	X [][]float64
	Y []float64
}

// Len returns the number of examples.
func (d Dataset) Len() int { return len(d.X) }

// SynthesizeLinear generates a linear-regression dataset y = x·w* + eps
// with standard-normal features and Gaussian label noise, returning the
// dataset and the true weights.
func SynthesizeLinear(rng *rand.Rand, n, dim int, noise float64) (Dataset, []float64) {
	wTrue := make([]float64, dim)
	for i := range wTrue {
		wTrue[i] = rng.NormFloat64()
	}
	ds := Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		dot := 0.0
		for j := range x {
			x[j] = rng.NormFloat64()
			dot += x[j] * wTrue[j]
		}
		ds.X[i] = x
		ds.Y[i] = dot + rng.NormFloat64()*noise
	}
	return ds, wTrue
}

// Model defines a differentiable per-example loss.
type Model interface {
	// Loss evaluates the loss of weights w on one example.
	Loss(w, x []float64, y float64) float64
	// AddGrad accumulates the per-example gradient at w into dst.
	AddGrad(dst, w, x []float64, y float64)
}

// LeastSquares is 1/2 (x·w - y)^2.
type LeastSquares struct{}

// Loss implements Model.
func (LeastSquares) Loss(w, x []float64, y float64) float64 {
	r := dot(x, w) - y
	return r * r / 2
}

// AddGrad implements Model.
func (LeastSquares) AddGrad(dst, w, x []float64, y float64) {
	r := dot(x, w) - y
	for i := range dst {
		dst[i] += r * x[i]
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// FullLoss evaluates the mean loss over the whole dataset.
func FullLoss(m Model, w []float64, ds Dataset) float64 {
	sum := 0.0
	for i := range ds.X {
		sum += m.Loss(w, ds.X[i], ds.Y[i])
	}
	return sum / float64(ds.Len())
}

// Config controls a data-parallel SGD run.
type Config struct {
	// Replicas is the data-parallel width K (default 1).
	Replicas int
	// Batch is the global batch size m, split evenly across replicas;
	// it must be divisible by Replicas.
	Batch int
	// M0 and Eta0 anchor AdaScale scaling (defaults: Batch and 0.1).
	M0   int
	Eta0 float64
	// UseAdaScale scales the learning rate by the measured gain; when
	// false the base rate is used unchanged.
	UseAdaScale bool
	// MaxSteps bounds the run (default 10000). TargetLoss, when > 0,
	// stops as soon as the full-data loss reaches it (checked every
	// EvalEvery steps, default 20).
	MaxSteps   int
	TargetLoss float64
	EvalEvery  int
	// GNSDecay smooths the measured noise scale (default 0.98).
	GNSDecay float64
	Seed     int64
}

func (c *Config) defaults() error {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.Batch%c.Replicas != 0 {
		return fmt.Errorf("train: batch %d not divisible by %d replicas", c.Batch, c.Replicas)
	}
	if c.M0 <= 0 {
		c.M0 = c.Batch
	}
	if c.Eta0 <= 0 {
		c.Eta0 = 0.1
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 10000
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 20
	}
	if c.GNSDecay <= 0 || c.GNSDecay >= 1 {
		c.GNSDecay = 0.98
	}
	return nil
}

// Stats reports a run's outcome.
type Stats struct {
	Steps             int
	ExamplesProcessed int64
	FinalLoss         float64
	ReachedTarget     bool
	// Phi is the final smoothed gradient noise scale (per-example
	// variance over squared gradient norm).
	Phi float64
	// PhiTrace samples the smoothed phi at every evaluation point.
	PhiTrace []float64
	// LossTrace samples the full-data loss at every evaluation point.
	LossTrace []float64
	// ScaleInvIters is the AdaScale scale-invariant iteration count.
	ScaleInvIters float64
}

// Run trains the model on the dataset with data-parallel SGD and returns
// the final weights and statistics. Training is deterministic for a given
// config.
func Run(model Model, ds Dataset, w0 []float64, cfg Config) ([]float64, Stats, error) {
	if err := cfg.defaults(); err != nil {
		return nil, Stats{}, err
	}
	if ds.Len() == 0 {
		return nil, Stats{}, fmt.Errorf("train: empty dataset")
	}
	dim := len(w0)
	w := append([]float64(nil), w0...)

	k := cfg.Replicas
	perReplica := cfg.Batch / k
	ring := allreduce.NewRing(k)

	rngs := make([]*rand.Rand, k)
	for r := range rngs {
		rngs[r] = rand.New(rand.NewSource(cfg.Seed + int64(r)*7919))
	}

	tracker := gns.NewTracker(cfg.GNSDecay)
	diff := gns.NewDiffEstimator(cfg.Batch)
	sched := adascale.NewSchedule(cfg.M0, cfg.Eta0)

	stats := Stats{}
	locals := make([][]float64, k)
	for r := range locals {
		locals[r] = make([]float64, dim)
	}

	for step := 0; step < cfg.MaxSteps; step++ {
		// Each replica computes its local mini-batch gradient.
		var wg sync.WaitGroup
		for r := 0; r < k; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				g := locals[r]
				for i := range g {
					g[i] = 0
				}
				rng := rngs[r]
				for b := 0; b < perReplica; b++ {
					idx := rng.Intn(ds.Len())
					model.AddGrad(g, w, ds.X[idx], ds.Y[idx])
				}
				inv := 1 / float64(perReplica)
				for i := range g {
					g[i] *= inv
				}
			}(r)
		}
		wg.Wait()

		// Measure gradient statistics from the real per-replica spread
		// (Sec. 3.1); fall back to the differenced estimator with one
		// replica.
		if k >= 2 {
			if est, err := gns.FromReplicas(locals, perReplica); err == nil {
				tracker.Observe(est)
			}
		}

		// Synchronize: all replicas all-reduce into the same average.
		avg := locals[0]
		if k >= 2 {
			var swg sync.WaitGroup
			for r := 0; r < k; r++ {
				swg.Add(1)
				go func(r int) {
					defer swg.Done()
					ring.AllReduce(r, locals[r])
				}(r)
			}
			swg.Wait()
		}
		if k == 1 {
			if est, err := diff.Update(avg); err == nil {
				tracker.Observe(est)
			}
		}

		// AdaScale learning rate and plain SGD update.
		phi := tracker.NoiseScale()
		lr := cfg.Eta0
		if cfg.UseAdaScale {
			lr = sched.Step(phi, cfg.Batch)
		} else {
			sched.Step(0, cfg.Batch)
		}
		for i := range w {
			w[i] -= lr * avg[i]
		}
		stats.Steps++
		stats.ExamplesProcessed += int64(cfg.Batch)

		if (step+1)%cfg.EvalEvery == 0 {
			loss := FullLoss(model, w, ds)
			stats.LossTrace = append(stats.LossTrace, loss)
			stats.PhiTrace = append(stats.PhiTrace, phi)
			if cfg.TargetLoss > 0 && loss <= cfg.TargetLoss {
				stats.ReachedTarget = true
				break
			}
		}
	}
	stats.FinalLoss = FullLoss(model, w, ds)
	if cfg.TargetLoss > 0 && stats.FinalLoss <= cfg.TargetLoss {
		stats.ReachedTarget = true
	}
	stats.Phi = tracker.NoiseScale()
	stats.ScaleInvIters = sched.Progress()
	return w, stats, nil
}
