package opt

import "testing"

func BenchmarkGoldenSectionMax(b *testing.B) {
	f := func(x float64) float64 { return -(x - 1234.5) * (x - 1234.5) }
	for i := 0; i < b.N; i++ {
		GoldenSectionMax(f, 0, 1e6, 1e-6)
	}
}

func BenchmarkGoldenSectionMaxInt(b *testing.B) {
	f := func(m int) float64 {
		d := float64(m - 51234)
		return -d * d
	}
	for i := 0; i < b.N; i++ {
		GoldenSectionMaxInt(f, 1, 100000)
	}
}

func BenchmarkLBFGSBQuadratic(b *testing.B) {
	f := func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			d := v - float64(i)
			s += d * d
		}
		return s
	}
	x0 := make([]float64, 7)
	bounds := Bounds{Lower: make([]float64, 7), Upper: make([]float64, 7)}
	for i := range bounds.Upper {
		bounds.Lower[i] = -100
		bounds.Upper[i] = 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultiStart(f, [][]float64{x0}, bounds, LBFGSBOptions{MaxIter: 100})
	}
}
