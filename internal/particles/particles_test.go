package particles

import (
	"math"
	"testing"

	"beamdyn/internal/phys"
)

func beam(n int) phys.Beam {
	return phys.Beam{
		NumParticles: n,
		TotalCharge:  2e-9,
		SigmaX:       1e-4,
		SigmaY:       3e-4,
		Energy:       1e9,
	}
}

func TestNewGaussianStatistics(t *testing.T) {
	e := NewGaussian(beam(200000), 42)
	st := e.Stats()
	if math.Abs(st.MeanX) > 2e-6 || math.Abs(st.MeanY) > 5e-6 {
		t.Fatalf("centroid (%g, %g) too far from origin", st.MeanX, st.MeanY)
	}
	if math.Abs(st.SigmaX-1e-4)/1e-4 > 0.01 {
		t.Fatalf("sigma_x = %g, want ~1e-4", st.SigmaX)
	}
	if math.Abs(st.SigmaY-3e-4)/3e-4 > 0.01 {
		t.Fatalf("sigma_y = %g, want ~3e-4", st.SigmaY)
	}
	if math.Abs(st.TotalCharge-2e-9)/2e-9 > 1e-9 {
		t.Fatalf("total charge = %g", st.TotalCharge)
	}
}

func TestNewGaussianDeterministic(t *testing.T) {
	a := NewGaussian(beam(100), 7)
	b := NewGaussian(beam(100), 7)
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatalf("particle %d differs across same-seed builds", i)
		}
	}
}

func TestInitialVelocityIsDesignVelocity(t *testing.T) {
	b := beam(10)
	e := NewGaussian(b, 1)
	want := b.Beta() * phys.C
	for _, p := range e.P {
		if p.VX != 0 || math.Abs(p.VY-want) > 1e-6*want {
			t.Fatalf("velocity (%g, %g), want (0, %g)", p.VX, p.VY, want)
		}
	}
}

func TestDriftMovesAtVelocity(t *testing.T) {
	e := &Ensemble{P: []Particle{{X: 1, Y: 2, VX: 3, VY: -4}}}
	e.Drift(0.5)
	if e.P[0].X != 2.5 || e.P[0].Y != 0 {
		t.Fatalf("drifted to (%g, %g)", e.P[0].X, e.P[0].Y)
	}
}

func TestPushConstantForce(t *testing.T) {
	// With staggered velocities (kick-then-drift) the position advances by
	// the post-kick velocity times dt.
	e := &Ensemble{P: []Particle{{VX: 1}}}
	f := []Force{{AX: 2}}
	dt := 0.1
	e.Push(f, dt)
	wantV := 1 + 2*dt
	if math.Abs(e.P[0].VX-wantV) > 1e-15 {
		t.Fatalf("vx = %g, want %g", e.P[0].VX, wantV)
	}
	if math.Abs(e.P[0].X-wantV*dt) > 1e-15 {
		t.Fatalf("x = %g, want %g", e.P[0].X, wantV*dt)
	}
}

func TestPushEnergyConservationHarmonic(t *testing.T) {
	// A leap-frog oscillator conserves energy to O(dt^2) over many
	// periods: the energy drift must stay bounded, not grow secularly.
	const omega = 1.0
	p := Particle{X: 1, VX: 0}
	e := &Ensemble{P: []Particle{p}}
	dt := 0.05
	energy := func() float64 {
		q := e.P[0]
		return 0.5*q.VX*q.VX + 0.5*omega*omega*q.X*q.X
	}
	e0 := energy()
	var maxDrift float64
	for i := 0; i < 10000; i++ {
		f := []Force{{AX: -omega * omega * e.P[0].X}}
		e.Push(f, dt)
		if d := math.Abs(energy()-e0) / e0; d > maxDrift {
			maxDrift = d
		}
	}
	// Staggered velocities make the naive energy oscillate with amplitude
	// O(omega*dt) but never grow secularly.
	if maxDrift > 2*omega*dt {
		t.Fatalf("energy drift %g over 10k steps", maxDrift)
	}
}

func TestPushPanicsOnMismatch(t *testing.T) {
	e := &Ensemble{P: make([]Particle, 3)}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched force slice did not panic")
		}
	}()
	e.Push(make([]Force, 2), 0.1)
}

func TestMacroChargeAndGamma(t *testing.T) {
	b := beam(1000)
	if mc := b.MacroCharge(); math.Abs(mc-2e-12) > 1e-24 {
		t.Fatalf("macro charge %g", mc)
	}
	g := b.Gamma()
	if g < 1956 || g > 1958 { // 1 + 1e9/510998.946 ~ 1957.9
		t.Fatalf("gamma = %g", g)
	}
	if beta := b.Beta(); beta <= 0.999999 || beta >= 1 {
		t.Fatalf("beta = %v", beta)
	}
	var empty phys.Beam
	if empty.MacroCharge() != 0 {
		t.Fatal("zero-particle beam must have zero macro charge")
	}
}

func TestEmptyEnsembleStats(t *testing.T) {
	var e Ensemble
	st := e.Stats()
	if st.SigmaX != 0 || st.TotalCharge != 0 {
		t.Fatalf("empty stats %+v", st)
	}
}

func TestEmittanceSampling(t *testing.T) {
	b := beam(200000)
	b.Emittance = 1e-9
	e := NewGaussian(b, 5)
	// RMS trace-space divergence must match emittance / sigma_x.
	v := b.Beta() * phys.C
	wantSigXP := b.Emittance / b.SigmaX
	var s2 float64
	for _, p := range e.P {
		xp := p.VX / v
		s2 += xp * xp
	}
	sig := math.Sqrt(s2 / float64(len(e.P)))
	if math.Abs(sig-wantSigXP)/wantSigXP > 0.02 {
		t.Fatalf("sigma_x' = %g, want %g", sig, wantSigXP)
	}
	// Cold beam stays cold.
	cold := NewGaussian(beam(100), 5)
	for _, p := range cold.P {
		if p.VX != 0 {
			t.Fatal("cold beam has transverse velocity")
		}
	}
}

// TestMeanMatchesStats: Mean is Stats' centroid recurrence without the
// second moments, so its result must equal Stats' MeanX and MeanY bit for
// bit, on sampled bunches of every shape (moved off the origin so the
// recurrence's steps are not all tiny) and on the empty ensemble.
func TestMeanMatchesStats(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var empty Ensemble
	if mx, my := empty.Mean(); !same(mx, 0) || !same(my, 0) {
		t.Errorf("empty ensemble: Mean = (%g, %g), want (0, 0)", mx, my)
	}
	for _, shape := range []Shape{GaussianShape, FlatTopShape, DoubleGaussianShape, ParabolicShape} {
		for seed, n := range []int{1, 2, 997, 10007} {
			e := NewShaped(beam(n), shape, uint64(seed+11))
			for i := range e.P {
				e.P[i].X += 3e-3
				e.P[i].Y -= 7e-2
			}
			st := e.Stats()
			if mx, my := e.Mean(); !same(mx, st.MeanX) || !same(my, st.MeanY) {
				t.Errorf("%v, %d particles: Mean = (%x, %x), Stats = (%x, %x)", shape, n,
					math.Float64bits(mx), math.Float64bits(my), math.Float64bits(st.MeanX), math.Float64bits(st.MeanY))
			}
		}
	}
}
