package retard

import (
	"fmt"
	"math"
	"testing"

	"beamdyn/internal/quadrature"
)

// FuzzEvaluatorMatchesClosure holds Evaluator.SolvePoint to the closure
// oracle at arbitrary points of six fixed problems: the trapezoid, Simpson
// and Boole inner rules, each on a history whose last bunch straddles
// y = 0 and on one translated 5 cm from it (endpointHistories). An input
// is a problem index and a point given as fractions of that problem's
// target extent, so points may lie outside the grid and in rows near
// y = 0. I, Err, Evals, Partition and Pattern must agree bit for bit. Each
// problem keeps one evaluator across inputs, so the state one point
// leaves in its memos (radial, y-row, trig) must never change another's
// result. Seeded with the bunch centre, the grid corners and rows at and
// next to y = 0.
func FuzzEvaluatorMatchesClosure(f *testing.F) {
	type problem struct {
		p              *Problem
		e              *Evaluator
		x0, y0, x1, y1 float64
	}
	var probs []problem
	for _, inner := range []quadrature.NewtonCotesOrder{quadrature.Trapezoid, quadrature.Simpson, quadrature.Boole} {
		params := testParams()
		params.Inner = inner
		for _, hc := range endpointHistories(params) {
			p := NewProblem(hc.h, params)
			x0, y0, x1, y1 := hc.h.At(7).Bounds()
			probs = append(probs, problem{p, NewEvaluator(p), x0, y0, x1, y1})
		}
	}
	for i, pr := range probs {
		idx := uint8(i)
		f.Add(idx, 0.5, 0.5)
		for _, c := range [][2]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
			f.Add(idx, c[0], c[1])
		}
		if zero := -pr.y0 / (pr.y1 - pr.y0); zero > 0 && zero < 1 {
			f.Add(idx, 0.5, zero)
			f.Add(idx, 0.2, math.Nextafter(zero, 1))
			f.Add(idx, 0.8, zero+1.0/47)
		}
	}
	f.Fuzz(func(t *testing.T, idx uint8, fx, fy float64) {
		if !(math.Abs(fx) <= 4 && math.Abs(fy) <= 4) {
			t.Skip("point more than 4 extents from the grid")
		}
		pr := probs[int(idx)%len(probs)]
		x := pr.x0 + fx*(pr.x1-pr.x0)
		y := pr.y0 + fy*(pr.y1-pr.y0)
		want := pr.p.SolvePointClosure(x, y)
		pr.e.ResetScratch()
		got := pr.e.SolvePoint(x, y)
		samePointResult(t, fmt.Sprintf("problem %d point (%g,%g)", int(idx)%len(probs), x, y), got, want)
	})
}
