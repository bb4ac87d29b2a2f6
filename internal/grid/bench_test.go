package grid

import (
	"testing"

	"beamdyn/internal/particles"
	"beamdyn/internal/phys"
)

func benchEnsemble(n int) *particles.Ensemble {
	return particles.NewGaussian(phys.Beam{
		NumParticles: n, TotalCharge: 1e-9,
		SigmaX: 1e-4, SigmaY: 2e-4, Energy: 1e9,
	}, 1)
}

// BenchmarkDeposit measures particle deposition (step 1 of the simulation
// loop) per scheme.
func BenchmarkDeposit(b *testing.B) {
	e := benchEnsemble(100000)
	g := New(128, 128, MomentComponents, -8e-4, -16e-4, 16e-4/127, 32e-4/127)
	for _, s := range []Scheme{NGP, CIC} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Deposit(g, e, s)
			}
		})
	}
}

// interpSink keeps BenchmarkInterp's gathers from being optimized away.
var interpSink float64

// BenchmarkInterp measures single-component gathering (step 3) per
// scheme: NGP's weight-free path and CIC's weighted loop.
func BenchmarkInterp(b *testing.B) {
	e := benchEnsemble(10000)
	g := New(128, 128, MomentComponents, -8e-4, -16e-4, 16e-4/127, 32e-4/127)
	for _, s := range []Scheme{NGP, CIC} {
		Deposit(g, e, s)
		b.Run(s.String(), func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				for j := range e.P {
					sum += Interp(g, e.P[j].X, e.P[j].Y, CompCharge, s)
				}
			}
			interpSink = sum
		})
	}
}

// BenchmarkHistoryAddress measures the simulated-address lookup on the
// integrand hot path.
func BenchmarkHistoryAddress(b *testing.B) {
	h := NewHistory(8)
	for s := 0; s < 8; s++ {
		g := New(64, 64, 3, 0, 0, 1, 1)
		g.Step = s
		h.Push(g)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Address(i%6+2, i%64, (i*7)%64, 0)
	}
}
