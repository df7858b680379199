// Package floateq is a floateq fixture: ==/!= on computed floats is
// flagged; exact-representable constants and the NaN idiom pass.
package floateq

import "math"

func flagged(a, b float64, xs []float64) bool {
	if a == b { // want `float == comparison`
		return true
	}
	if a/3 != b*7 { // want `float != comparison`
		return false
	}
	// 0.1 is not exactly representable in binary floating point.
	if a == 0.1 { // want `float == comparison`
		return true
	}
	return xs[0] != b // want `float != comparison`
}

// A type parameter whose type set is one float type compares like it.
func flaggedGeneric[T ~float64](a, b T) bool {
	return a == b // want `float == comparison`
}

func allowed(a, b float64, f32 float32) bool {
	// Exact-representable constants: sentinel and exact-gate checks.
	if a == 0 || b == 0.5 || a == -1 || f32 == 2 {
		return true
	}
	// The NaN idiom: only NaN differs from itself.
	if a != a {
		return false
	}
	// Bit-pattern identity is the sanctioned exact comparison.
	return math.Float64bits(a) == math.Float64bits(b)
}

func justified(a, b float64) bool {
	//pollux:floateq-ok both sides are copied untouched from the same source; any difference is a real divergence
	return a == b
}
