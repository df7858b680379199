package opt

import "testing"

func BenchmarkGoldenSectionMaxInt(b *testing.B) {
	f := func(m int) float64 {
		d := float64(m - 51234)
		return -d * d
	}
	for i := 0; i < b.N; i++ {
		GoldenSectionMaxInt(f, 1, 100000)
	}
}

// quadratic is sum (x_i - i)^2 with its analytic gradient.
type quadratic struct{ x []float64 }

func (q *quadratic) Value(x []float64) float64 {
	q.x = append(q.x[:0], x...)
	s := 0.0
	for i, v := range x {
		d := v - float64(i)
		s += d * d
	}
	return s
}

func (q *quadratic) Grad(g []float64) {
	for i, v := range q.x {
		g[i] = 2 * (v - float64(i))
	}
}

func BenchmarkLBFGSBQuadratic(b *testing.B) {
	x0 := make([]float64, 7)
	bounds := Bounds{Lower: make([]float64, 7), Upper: make([]float64, 7)}
	for i := range bounds.Upper {
		bounds.Lower[i] = -100
		bounds.Upper[i] = 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LBFGSB(&quadratic{}, x0, bounds, LBFGSBOptions{MaxIter: 100})
	}
}
