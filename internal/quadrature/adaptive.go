package quadrature

import (
	"fmt"
	"math"
)

// asrFrame is one pending interval of the iterative adaptive Simpson: it
// carries the integrand values at the interval's endpoints and midpoint,
// which the parent panel has already computed.
type asrFrame struct {
	a, b, tol  float64
	depth      int
	fa, fm, fb float64
}

// AdaptiveWorkspace holds the reusable interval stack of the iterative
// adaptive Simpson algorithm, so steady-state integrations allocate
// nothing once the stack has grown to the problem's refinement depth. The
// zero value is ready to use. A workspace is not safe for concurrent use —
// give each worker its own.
type AdaptiveWorkspace struct {
	rstack []asrFrame
}

// Known is an integrand value the caller already holds: F is f(X). It
// carries a shared endpoint from one IntegrateReuse call to the next; the
// zero value holds nothing.
type Known struct {
	X, F float64
	OK   bool
}

// IntegrateReuse integrates f over [a, b] exactly as AdaptiveSimpson does —
// identical estimates, error sums, reported evaluation counts and panel
// partition, bit for bit — but iteratively, the recursion replaced by the
// workspace's explicit stack, and it reuses panel values across refinement
// levels: every frame carries the integrand values at its endpoints and
// midpoint, which its parent panel already computed, so a refined panel
// costs two new integrand evaluations (its quarter points) instead of
// five. Each accepted panel appends its right breakpoint to part (the
// caller seeds the left endpoint), which is returned alongside the
// estimate so callers can accumulate a whole multi-subregion partition
// without intermediate slices. Each Estimate still reports five Evals
// per panel, exactly as the non-reusing path counts them, because Evals is
// the quadrature's nominal evaluation count — the quantity the paper's
// access-pattern model is built on — not a call tally.
//
// fa carries a value the caller already holds, which must be what f
// returns at fa.X: when fa.X is bitwise a, fa.F serves as f(a) and f is
// not called there. The returned Known holds f(b) (nothing for an empty
// interval), so integrations over adjacent intervals can hand their
// shared endpoint on.
//
// The reuse is only sound for a deterministic, side-effect-free integrand:
// f(x) must return the identical float64 every time it is called with the
// same x within one integration. f is called at the recursion's abscissae
// in the order it first reaches each, once per abscissa, not in the
// recursion's call sequence; the simulated kernels, whose integrands
// record lane loads and flops per call, run their own depth-first search
// instead.
func (w *AdaptiveWorkspace) IntegrateReuse(f Func, a, b, tol float64, maxDepth int, fa Known, part []float64) (Estimate, Known, []float64) {
	if b < a || math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		panic(fmt.Sprintf("quadrature: invalid interval [%g, %g]", a, b))
	}
	var est Estimate
	if a == b {
		return est, Known{}, append(part, b)
	}
	// The root panel's endpoint and midpoint values; SimpsonRule's own
	// evaluation order is (a, m, b, ...), preserved here so an integrand
	// with internal state keyed on first-seen radii behaves identically.
	rm := 0.5 * (a + b)
	rfa := fa.F
	if !fa.OK || math.Float64bits(fa.X) != math.Float64bits(a) {
		rfa = f(a)
	}
	rfm, rfb := f(rm), f(b)
	// Depth-first descent with the current interval held in registers: a
	// refined panel's left child continues in place and only the right
	// child is pushed, so each refinement costs one frame copy instead of
	// a double push and a pop. The panel visit order — and with it the
	// evaluation order and the accepted-panel accumulation order — is the
	// recursion's pre-order exactly as before.
	stack := w.rstack[:0]
	fr := asrFrame{a: a, b: b, tol: tol, fa: rfa, fm: rfm, fb: rfb}
	for {
		// SimpsonRule's arithmetic with (fa, fm, fb) served from the
		// frame: identical expressions, identical operand order.
		m := 0.5 * (fr.a + fr.b)
		h := fr.b - fr.a
		coarse := h / 6 * (fr.fa + 4*fr.fm + fr.fb)
		lm, rm := 0.5*(fr.a+m), 0.5*(m+fr.b)
		flm, frm := f(lm), f(rm)
		fine := h / 12 * (fr.fa + 4*flm + 2*fr.fm + 4*frm + fr.fb)
		errEst := math.Abs(fine-coarse) / 15
		est.Evals += 5
		if errEst <= fr.tol || fr.depth >= maxDepth {
			est.I += fine + (fine-coarse)/15
			est.Err += errEst
			part = append(part, fr.b)
			if len(stack) == 0 {
				break
			}
			fr = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			continue
		}
		stack = append(stack, asrFrame{a: m, b: fr.b, tol: fr.tol / 2, depth: fr.depth + 1, fa: fr.fm, fm: frm, fb: fr.fb})
		fr = asrFrame{a: fr.a, b: m, tol: fr.tol / 2, depth: fr.depth + 1, fa: fr.fa, fm: flm, fb: fr.fm}
	}
	w.rstack = stack[:0]
	return est, Known{X: b, F: rfb, OK: true}, part
}
