// Package quadrature implements the numerical-integration machinery behind
// the rp-integral evaluation: Newton-Cotes formulae for the inner (angular)
// integral, Simpson's rule with error estimation for the outer (radial)
// subregions (RP-QUADRULE in the paper), and the classic adaptive Simpson
// algorithm with partition and access logging (RP-ADAPTIVEQUADRATURE).
package quadrature

import (
	"fmt"
	"math"
	"sort"
)

// Func is a one-dimensional integrand.
type Func func(x float64) float64

// NewtonCotesOrder selects a closed Newton-Cotes formula for the inner
// integral. The constant alpha in the paper — the number of memory
// references per inner-integral evaluation — is proportional to Points().
type NewtonCotesOrder int

const (
	// Trapezoid is the 2-point closed rule (degree 1).
	Trapezoid NewtonCotesOrder = iota
	// Simpson is the 3-point closed rule (degree 2).
	Simpson
	// Simpson38 is the 4-point closed rule (degree 3).
	Simpson38
	// Boole is the 5-point closed rule (degree 4).
	Boole
)

// Points returns the number of abscissae the rule evaluates.
func (o NewtonCotesOrder) Points() int {
	switch o {
	case Trapezoid:
		return 2
	case Simpson:
		return 3
	case Simpson38:
		return 4
	case Boole:
		return 5
	}
	panic(fmt.Sprintf("quadrature: unknown Newton-Cotes order %d", int(o)))
}

// weights returns the closed Newton-Cotes weights w such that
// integral ≈ (b-a) * sum_i w_i f(x_i) with x_i equally spaced on [a, b].
func (o NewtonCotesOrder) weights() []float64 {
	return o.AppendWeights(nil)
}

// AppendWeights appends the rule's closed Newton-Cotes weights to dst and
// returns it, for callers that hoist the weight table out of their inner
// loop (NewtonCotes builds a fresh table on every call).
func (o NewtonCotesOrder) AppendWeights(dst []float64) []float64 {
	switch o {
	case Trapezoid:
		return append(dst, 0.5, 0.5)
	case Simpson:
		return append(dst, 1.0/6, 4.0/6, 1.0/6)
	case Simpson38:
		return append(dst, 1.0/8, 3.0/8, 3.0/8, 1.0/8)
	case Boole:
		return append(dst, 7.0/90, 32.0/90, 12.0/90, 32.0/90, 7.0/90)
	}
	panic("quadrature: unknown Newton-Cotes order")
}

// NewtonCotes integrates f over [a, b] with a single application of the
// closed rule of the given order.
func NewtonCotes(f Func, a, b float64, o NewtonCotesOrder) float64 {
	w := o.weights()
	n := len(w)
	h := (b - a) / float64(n-1)
	var s float64
	for i, wi := range w {
		s += wi * f(a+float64(i)*h)
	}
	return (b - a) * s
}

// Estimate is a quadrature-rule result: the integral estimate, its error
// estimate, and the number of integrand evaluations spent, which the
// access-pattern model converts into memory-reference counts.
type Estimate struct {
	I     float64
	Err   float64
	Evals int
}

// SimpsonRule computes the Simpson estimate on [a, b] together with the
// standard |S_fine - S_coarse|/15 Richardson error estimate obtained by
// comparing one panel against two half panels. This is RP-QUADRULE's
// outer-dimension rule (the integrand f is, for the rp-integral, itself an
// inner Newton-Cotes integral).
func SimpsonRule(f Func, a, b float64) Estimate {
	m := 0.5 * (a + b)
	fa, fm, fb := f(a), f(m), f(b)
	h := b - a
	coarse := h / 6 * (fa + 4*fm + fb)
	lm, rm := 0.5*(a+m), 0.5*(m+b)
	flm, frm := f(lm), f(rm)
	fine := h / 12 * (fa + 4*flm + 2*fm + 4*frm + fb)
	return Estimate{
		I:     fine + (fine-coarse)/15,
		Err:   math.Abs(fine-coarse) / 15,
		Evals: 5,
	}
}

// Result is the output of an adaptive integration: estimates plus the
// partition of the integration interval that the refinement produced. The
// partition is the sorted list of breakpoints r_0 < r_1 < ... < r_n from
// the paper's Equation 2, and len(Partition)-1 is the number of panels —
// the quantity n_j that the access-pattern representation records per
// subregion.
type Result struct {
	Estimate
	Partition []float64
}

// AdaptiveSimpson integrates f over [a, b] to absolute tolerance tol with
// the classic recursive adaptive Simpson algorithm, recording the panel
// partition it generates. maxDepth bounds the recursion (the reference
// implementation uses 30, far beyond any partition the experiments reach);
// when the bound is hit the current estimate is accepted, mirroring the
// behaviour of the CUDA implementation in [9].
//
// This is the data-dependent, control-flow-irregular algorithm whose
// divergence the paper's Predictive-RP method is designed to avoid.
func AdaptiveSimpson(f Func, a, b, tol float64, maxDepth int) Result {
	if b < a || math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		panic(fmt.Sprintf("quadrature: invalid interval [%g, %g]", a, b))
	}
	res := Result{Partition: []float64{a}}
	if a == b {
		res.Partition = append(res.Partition, b)
		return res
	}
	var rec func(a, b, tol float64, depth int)
	rec = func(a, b, tol float64, depth int) {
		est := SimpsonRule(f, a, b)
		res.Evals += est.Evals
		if est.Err <= tol || depth >= maxDepth {
			res.I += est.I
			res.Err += est.Err
			res.Partition = append(res.Partition, b)
			return
		}
		m := 0.5 * (a + b)
		rec(a, m, tol/2, depth+1)
		rec(m, b, tol/2, depth+1)
	}
	rec(a, b, tol, 0)
	return res
}

// AppendMergeLists appends the sorted union of two sorted partitions, with
// duplicates removed, to dst and returns the extended slice — the
// MERGE-LISTS auxiliary procedure of Algorithm 1. Values closer than eps
// are treated as duplicates, which keeps merged partitions from
// accumulating panels of zero width due to floating-point noise; the rule
// applies among the merged values only, so the first of them is appended
// whatever dst ends with. Callers that merge every step pass a reused
// buffer as dst[:0]. p and q are not modified and must not share memory
// with dst's spare capacity.
func AppendMergeLists(dst, p, q []float64, eps float64) []float64 {
	start := len(dst)
	i, j := 0, 0
	for i < len(p) || j < len(q) {
		var v float64
		if j == len(q) || (i < len(p) && p[i] <= q[j]) {
			v = p[i]
			i++
		} else {
			v = q[j]
			j++
		}
		if n := len(dst); n == start || v-dst[n-1] > eps {
			dst = append(dst, v)
		}
	}
	return dst
}

// UniformPartition returns n+1 equally spaced breakpoints dividing [a, b]
// into n panels. n < 1 is treated as 1.
func UniformPartition(a, b float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	p := make([]float64, n+1)
	h := (b - a) / float64(n)
	for i := range p {
		p[i] = a + float64(i)*h
	}
	p[n] = b
	return p
}

// IsSortedPartition reports whether p is strictly increasing, the invariant
// every partition in the system maintains.
func IsSortedPartition(p []float64) bool {
	return sort.SliceIsSorted(p, func(i, j int) bool { return p[i] < p[j] }) &&
		func() bool {
			for i := 0; i+1 < len(p); i++ {
				if p[i] == p[i+1] {
					return false
				}
			}
			return true
		}()
}
