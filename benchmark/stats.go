package main

import (
	"math"

	"repro/internal/metrics"
)

// tailPercentile returns the highest of the reported percentiles that
// still has at least ten of n samples beyond it; below 20 samples only
// the median qualifies.
func tailPercentile(n int) float64 {
	// A percentile leaves one sample in `one` beyond it.
	for _, c := range []struct {
		p   float64
		one int
	}{{99.9, 1000}, {99, 100}, {90, 10}} {
		if n >= 10*c.one {
			return c.p
		}
	}
	return 50
}

// percentile is the p-th percentile of xs, interpolated between order
// statistics like every percentile in the repo (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Percentile(xs, p)
}

// median of two repetitions is their mean, not the slower one.
func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest is an FNV-1a accumulator over the values a repetition produced;
// two repetitions of one seed must end on the same sum.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) u64(v uint64) {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= prime
		v >>= 8
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
