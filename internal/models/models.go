// Package models provides the evaluation model zoo from Table 1 of the
// Pollux paper: per-model ground-truth system-throughput parameters and
// gradient-noise-scale trajectories that substitute for real DL training.
//
// The schedulers never see these ground-truth values directly. The
// simulator replays them — adding measurement noise — as the observable
// (allocation, batch size, iteration time) samples and gradient statistics
// a real PolluxAgent would profile, so the agents must fit their own
// models online exactly as in the paper (Sec. 4.1, Sec. 5.3 "Simulator").
//
// Calibration targets the qualitative shapes the paper reports rather
// than any particular hardware: single-GPU throughput and job GPU-time
// land in the paper's workload categories (Small/Medium/Large/XLarge),
// noise scale grows over training and jumps at learning-rate decays
// (Fig. 2a), and larger batch sizes scale to more GPUs (Fig. 1a).
package models

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Category classifies jobs by total GPU-time, following Sec. 5.1.
type Category int

const (
	Small  Category = iota // 0 to 1 GPU-hours
	Medium                 // 1 to 10 GPU-hours
	Large                  // 10 to 100 GPU-hours
	XLarge                 // 100 to 1000 GPU-hours
)

func (c Category) String() string {
	switch c {
	case Small:
		return "Small"
	case Medium:
		return "Medium"
	case Large:
		return "Large"
	case XLarge:
		return "XLarge"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Decay marks a learning-rate decay milestone: when training progress
// passes Progress (fraction of total work), the gradient noise scale jumps
// by Factor. This reproduces the Fig. 2a behaviour where statistical
// efficiency of large batches improves sharply after each decay.
type Decay struct {
	Progress float64
	Factor   float64
}

// Spec is one model/dataset workload with its hidden ground truth.
type Spec struct {
	Name     string
	Dataset  string
	Task     string
	Category Category

	// Truth is the ground-truth θsys the simulator replays. Schedulers
	// must not read it; they fit their own estimates from observations.
	Truth core.Params

	M0   int     // initial (user-submitted) batch size
	Eta0 float64 // initial learning rate

	MaxBatchPerGPU int // GPU memory limit on the per-GPU batch
	MaxBatchGlobal int // quality limit on the total batch size

	DatasetSize int     // examples per epoch
	Epochs      float64 // statistical epochs (at m0) to reach the validation target

	// PhiBase and PhiGrowth define the baseline noise-scale trajectory
	// phi(p) = PhiBase·(1 + PhiGrowth·p) for progress p ∈ [0, 1],
	// multiplied by the Factor of every Decay already passed.
	PhiBase   float64
	PhiGrowth float64
	Decays    []Decay

	// Frac is this workload's share of job submissions (Table 1).
	Frac float64
}

// Phi returns the ground-truth gradient noise scale at training progress
// p ∈ [0, 1]. Progress outside the range is clamped.
func (s *Spec) Phi(p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	phi := s.PhiBase * (1 + s.PhiGrowth*p)
	for _, d := range s.Decays {
		if p >= d.Progress {
			phi *= d.Factor
		}
	}
	return phi
}

// TotalWork returns the job's total work in m0-equivalent examples: one
// statistical epoch is DatasetSize examples processed at batch size m0.
func (s *Spec) TotalWork() float64 {
	return float64(s.DatasetSize) * s.Epochs
}

// GPUTimeHours returns the single-GPU time to completion at the initial
// batch size (efficiency 1), in hours — the quantity the paper uses to
// categorize jobs.
func (s *Spec) GPUTimeHours() float64 {
	tput := s.Truth.Throughput(core.SingleGPU, float64(s.M0))
	return s.TotalWork() / tput / 3600
}

// GoodputModel builds the ground-truth goodput model at progress p. The
// simulator uses it to compute true iteration times and efficiencies.
func (s *Spec) GoodputModel(p float64) core.Model {
	return core.Model{
		Params:         s.Truth,
		Phi:            s.Phi(p),
		M0:             s.M0,
		MaxBatchPerGPU: s.MaxBatchPerGPU,
		MaxBatchGlobal: s.MaxBatchGlobal,
	}
}

// Zoo returns the five evaluation workloads of Table 1, ordered from
// largest to smallest category.
func Zoo() []*Spec {
	return []*Spec{
		{
			Name:     "resnet50",
			Dataset:  "imagenet",
			Task:     "Image Classification",
			Category: XLarge,
			Truth: core.Params{
				AlphaGrad: 0.10, BetaGrad: 0.0045,
				AlphaSyncLocal: 0.10, BetaSyncLocal: 0.010,
				AlphaSyncNode: 0.25, BetaSyncNode: 0.015,
				Gamma: 2.5,
			},
			M0: 128, Eta0: 0.1,
			MaxBatchPerGPU: 192, MaxBatchGlobal: 32768,
			DatasetSize: 1281167, Epochs: 90,
			PhiBase: 1500, PhiGrowth: 20,
			Decays: []Decay{{Progress: 1.0 / 3, Factor: 3}, {Progress: 2.0 / 3, Factor: 3}},
			Frac:   0.02,
		},
		{
			Name:     "yolov3",
			Dataset:  "pascal-voc",
			Task:     "Object Detection",
			Category: Large,
			Truth: core.Params{
				AlphaGrad: 0.05, BetaGrad: 0.030,
				AlphaSyncLocal: 0.08, BetaSyncLocal: 0.010,
				AlphaSyncNode: 0.20, BetaSyncNode: 0.020,
				Gamma: 2.0,
			},
			M0: 8, Eta0: 0.001,
			MaxBatchPerGPU: 16, MaxBatchGlobal: 512,
			DatasetSize: 16551, Epochs: 72,
			PhiBase: 80, PhiGrowth: 10,
			Decays: []Decay{{Progress: 0.6, Factor: 2.5}, {Progress: 0.85, Factor: 2.5}},
			Frac:   0.05,
		},
		{
			Name:     "deepspeech2",
			Dataset:  "cmu-arctic",
			Task:     "Speech Recognition",
			Category: Medium,
			Truth: core.Params{
				AlphaGrad: 0.10, BetaGrad: 0.028,
				AlphaSyncLocal: 0.06, BetaSyncLocal: 0.008,
				AlphaSyncNode: 0.18, BetaSyncNode: 0.015,
				Gamma: 2.0,
			},
			M0: 16, Eta0: 0.0003,
			MaxBatchPerGPU: 32, MaxBatchGlobal: 1024,
			DatasetSize: 4500, Epochs: 80,
			PhiBase: 150, PhiGrowth: 8,
			Decays: []Decay{{Progress: 0.7, Factor: 2}},
			Frac:   0.17,
		},
		{
			Name:     "resnet18",
			Dataset:  "cifar10",
			Task:     "Image Classification",
			Category: Small,
			Truth: core.Params{
				AlphaGrad: 0.02, BetaGrad: 0.0005,
				AlphaSyncLocal: 0.03, BetaSyncLocal: 0.004,
				AlphaSyncNode: 0.10, BetaSyncNode: 0.008,
				Gamma: 3.0,
			},
			M0: 128, Eta0: 0.1,
			MaxBatchPerGPU: 1024, MaxBatchGlobal: 8192,
			DatasetSize: 50000, Epochs: 80,
			PhiBase: 400, PhiGrowth: 15,
			Decays: []Decay{{Progress: 0.5, Factor: 4}, {Progress: 0.75, Factor: 4}},
			Frac:   0.38,
		},
		{
			Name:     "neumf",
			Dataset:  "movielens",
			Task:     "Collaborative Filtering",
			Category: Small,
			Truth: core.Params{
				AlphaGrad: 0.005, BetaGrad: 0.00003,
				AlphaSyncLocal: 0.05, BetaSyncLocal: 0.006,
				AlphaSyncNode: 0.15, BetaSyncNode: 0.010,
				Gamma: 1.8,
			},
			M0: 256, Eta0: 0.001,
			MaxBatchPerGPU: 4096, MaxBatchGlobal: 32768,
			DatasetSize: 1000000, Epochs: 20,
			PhiBase: 1000, PhiGrowth: 5,
			Decays: nil,
			Frac:   0.38,
		},
	}
}

// Index returns one fresh zoo keyed by model name. A run resolves its trace
// jobs through one Index, so the jobs of a model share its Spec and none
// may write it.
func Index() map[string]*Spec {
	zoo := Zoo()
	idx := make(map[string]*Spec, len(zoo))
	for _, s := range zoo {
		idx[s.Name] = s
	}
	return idx
}

// ByName returns the zoo spec with the given name, or nil. Every call
// builds a fresh zoo, so the spec is the caller's own: it may set a field
// (Epochs, to shorten a run) without touching any other caller's.
func ByName(name string) *Spec {
	for _, s := range Zoo() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Names returns the zoo model names, sorted.
func Names() []string {
	zoo := Zoo()
	names := make([]string, len(zoo))
	for i, s := range zoo {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
