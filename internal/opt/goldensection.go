// Package opt provides the numerical optimization routines used by Pollux:
// golden-section search for unimodal one-dimensional objectives (used to
// find the goodput-maximizing batch size, Eqn. 13 of the paper) and a
// box-constrained L-BFGS minimizer (a from-scratch stand-in for L-BFGS-B,
// used to fit the throughput model parameters, Sec. 4.1).
//
// All routines are deterministic and allocation-light; they are called on
// every scheduling interval for every job in the cluster, so they are kept
// simple and fast rather than maximally general.
package opt

import (
	"math"
)

// invPhi is 1/phi where phi is the golden ratio.
const invPhi = 0.6180339887498949

// GoldenSectionMaxInt finds the maximizer of a unimodal function f over the
// integers in [lo, hi]. It runs a golden-section-style bracketing on the
// integer lattice and finishes with a local scan, which is exact for
// unimodal f. It returns the integer argmax and the maximum value.
func GoldenSectionMaxInt(f func(int) float64, lo, hi int) (x int, fx float64) {
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi-lo <= 8 {
		return scanMaxInt(f, lo, hi)
	}
	a, b := lo, hi
	c := b - int(math.Round(float64(b-a)*invPhi))
	d := a + int(math.Round(float64(b-a)*invPhi))
	if c <= a {
		c = a + 1
	}
	if d >= b {
		d = b - 1
	}
	if c >= d {
		return scanMaxInt(f, lo, hi)
	}
	fc, fd := f(c), f(d)
	for b-a > 8 {
		if fc > fd {
			b, d, fd = d, c, fc
			c = b - int(math.Round(float64(b-a)*invPhi))
			if c <= a {
				c = a + 1
			}
			if c >= d {
				break
			}
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + int(math.Round(float64(b-a)*invPhi))
			if d >= b {
				d = b - 1
			}
			if c >= d {
				break
			}
			fd = f(d)
		}
	}
	return scanMaxInt(f, a, b)
}

func scanMaxInt(f func(int) float64, lo, hi int) (x int, fx float64) {
	x, fx = lo, f(lo)
	for v := lo + 1; v <= hi; v++ {
		if fv := f(v); fv > fx {
			x, fx = v, fv
		}
	}
	return x, fx
}
