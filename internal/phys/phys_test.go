package phys

import (
	"math"
	"testing"
)

func TestConstantsConsistent(t *testing.T) {
	// 1/(4 pi eps0) ~ 8.988e9.
	if math.Abs(CoulombConstant-8.9875e9)/8.9875e9 > 1e-3 {
		t.Fatalf("Coulomb constant %g", CoulombConstant)
	}
	// c^2 = 1/(mu0 eps0).
	if math.Abs(C*C-1/(Mu0*Epsilon0))/(C*C) > 1e-9 {
		t.Fatalf("c^2 inconsistent with mu0*eps0")
	}
}

func TestGammaBetaRelation(t *testing.T) {
	b := Beam{Energy: 4.3e9}
	g := b.Gamma()
	beta := b.Beta()
	if math.Abs(g*g*(1-beta*beta)-1) > 1e-6 {
		t.Fatalf("gamma/beta inconsistent: g=%g beta=%g", g, beta)
	}
	if g < 8000 || g > 9000 { // 1 + 4.3e9/511e3 ~ 8415
		t.Fatalf("gamma = %g for 4.3 GeV", g)
	}
	var rest Beam
	if rest.Gamma() != 1 || rest.Beta() != 0 {
		t.Fatal("zero-energy beam must be at rest")
	}
}

func TestSigmaXPrime(t *testing.T) {
	b := Beam{SigmaX: 1e-4, Emittance: 1e-9}
	if got := b.SigmaXPrime(); math.Abs(got-1e-5) > 1e-18 {
		t.Fatalf("sigma_x' = %g", got)
	}
	var cold Beam
	if cold.SigmaXPrime() != 0 {
		t.Fatal("cold beam divergence not zero")
	}
}
