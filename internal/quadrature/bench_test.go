package quadrature

import (
	"math"
	"testing"
)

func BenchmarkSimpsonRule(b *testing.B) {
	f := func(x float64) float64 { return math.Exp(-x * x) }
	for i := 0; i < b.N; i++ {
		SimpsonRule(f, 0, 1)
	}
}

func BenchmarkAdaptiveSimpsonSmooth(b *testing.B) {
	f := math.Sin
	for i := 0; i < b.N; i++ {
		AdaptiveSimpson(f, 0, math.Pi, 1e-9, 30)
	}
}

func BenchmarkAdaptiveSimpsonPeaked(b *testing.B) {
	f := func(x float64) float64 { return 1 / (1e-4 + x*x) }
	for i := 0; i < b.N; i++ {
		AdaptiveSimpson(f, 0, 1, 1e-9, 30)
	}
}

func BenchmarkMergeLists(b *testing.B) {
	p := UniformPartition(0, 1, 200)
	q := UniformPartition(0, 1, 133)
	var dst []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendMergeLists(dst[:0], p, q, 1e-15)
	}
}
