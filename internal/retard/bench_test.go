package retard

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"beamdyn/internal/grid"
)

// BenchmarkSolvePoint measures one sequential rp-integral evaluation at
// the bunch centre (the hottest point of the grid).
func BenchmarkSolvePoint(b *testing.B) {
	h, _ := buildHistory(8, 64, testParams())
	p := NewProblem(h, testParams())
	g := h.At(7)
	cx := g.X0 + float64(g.NX-1)*g.DX/2
	cy := g.Y0 + float64(g.NY-1)*g.DY/2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SolvePoint(cx, cy)
	}
}

// BenchmarkIntegrandSample measures one 27-point retarded-moment stencil
// sample, the innermost operation of every kernel.
func BenchmarkIntegrandSample(b *testing.B) {
	h, _ := buildHistory(8, 64, testParams())
	p := NewProblem(h, testParams())
	g := h.At(7)
	cx := g.X0 + float64(g.NX-1)*g.DX/2
	cy := g.Y0 + float64(g.NY-1)*g.DY/2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Sample(cx, cy, 0.5*p.SubWidth(), -1.5, nil)
	}
}

// BenchmarkSolvePointClosure measures the pre-refactor closure-based
// evaluation path, kept as the equivalence reference.
func BenchmarkSolvePointClosure(b *testing.B) {
	h, _ := buildHistory(8, 64, testParams())
	p := NewProblem(h, testParams())
	g := h.At(7)
	cx := g.X0 + float64(g.NX-1)*g.DX/2
	cy := g.Y0 + float64(g.NY-1)*g.DY/2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SolvePointClosure(cx, cy)
	}
}

// BenchmarkEvaluatorSolvePoint measures the allocation-free panel
// evaluator in steady state (scratch reset per point, as the grid solver
// does per batch).
func BenchmarkEvaluatorSolvePoint(b *testing.B) {
	h, _ := buildHistory(8, 64, testParams())
	p := NewProblem(h, testParams())
	g := h.At(7)
	cx := g.X0 + float64(g.NX-1)*g.DX/2
	cy := g.Y0 + float64(g.NY-1)*g.DY/2
	e := NewEvaluator(p)
	e.SolvePoint(cx, cy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ResetScratch()
		e.SolvePoint(cx, cy)
	}
}

// BenchmarkSolveGrid measures the host reference solver over a small
// potential grid.
func BenchmarkSolveGrid(b *testing.B) {
	params := testParams()
	h, _ := buildHistory(8, 32, params)
	p := NewProblem(h, params)
	src := h.At(7)
	for i := 0; i < b.N; i++ {
		target := cloneGeometry(src, 16, 16)
		p.SolveGrid(target, 0)
	}
}

// floorPoints scatters ~64 probe points across the target, bunch centre
// included, so the per-point costs average full-circle and narrow-cone
// geometry the way a real solve does.
func floorPoints(target *grid.Grid) [][2]float64 {
	stride := target.NX / 8
	if stride < 1 {
		stride = 1
	}
	var pts [][2]float64
	for iy := stride / 2; iy < target.NY; iy += stride {
		for ix := stride / 2; ix < target.NX; ix += stride {
			x, y := target.Point(ix, iy)
			pts = append(pts, [2]float64{x, y})
		}
	}
	return pts
}

// interleavedMinNs times each candidate over pts after one warm-up pass
// each, alternating candidates within every rep so transient machine load
// hits them all alike, with GC off, and returns each candidate's fastest
// pass in ns per point.
func interleavedMinNs(pts [][2]float64, reps int, fns ...func(x, y float64)) []float64 {
	for _, fn := range fns {
		for _, pt := range pts {
			fn(pt[0], pt[1])
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := make([]float64, len(fns))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for r := 0; r < reps; r++ {
		for i, fn := range fns {
			t0 := time.Now()
			for _, pt := range pts {
				fn(pt[0], pt[1])
			}
			best[i] = math.Min(best[i], float64(time.Since(t0)))
		}
	}
	for i := range best {
		best[i] /= float64(len(pts))
	}
	return best
}

// BenchmarkEvaluatorFloor holds the host rp solver to its floors on the
// continuum scenario at 48x48. Each iteration is one whole floor
// measurement; `make bench-floors` runs it with -benchtime 1x.
//
//   - seed: over the 64 floorPoints, the seed closure path must take at
//     least 5x the panel evaluator's time per point (min of 8 interleaved
//     reps). The seed computed the radial weight with math.Pow; nudging
//     WeightExp one ulp off 1/3 routes it there instead of the Cbrt fast
//     path, with physically indistinguishable values.
//   - scaling: a full-grid GridSolver solve at 4 workers must be at least
//     1.6x faster than at 1 (min of 8 reps each, the 1-worker solve and
//     the row's alternating within every rep, GOMAXPROCS set to each
//     solve's worker count). The 2-worker row only reports its speedup:
//     on 2 shared vCPUs it read 0.98x to 2.41x over 40 runs (median
//     1.81x), 4 of them below 1.3x, so a 1.3x floor would fail now and
//     then. A row is skipped on machines with fewer CPUs than its
//     workers, where parallel speedup is not measurable.
func BenchmarkEvaluatorFloor(b *testing.B) {
	const nx, reps = 48, 8
	params := testParams()
	h, _ := buildHistory(8, nx, params)
	p := NewProblem(h, params)
	last := h.At(7)
	target := grid.New(nx, nx, 1, last.X0, last.Y0, last.DX, last.DY)

	b.Run("seed", func(b *testing.B) {
		const minSpeedup = 5
		seedParams := params
		seedParams.WeightExp = math.Nextafter(1.0/3, 1)
		hSeed, _ := buildHistory(8, nx, seedParams)
		seed := NewProblem(hSeed, seedParams)
		e := NewEvaluator(p)
		pts := floorPoints(target)
		for i := 0; i < b.N; i++ {
			ns := interleavedMinNs(pts, reps,
				func(x, y float64) { seed.SolvePointClosure(x, y) },
				func(x, y float64) { p.SolvePointClosure(x, y) },
				func(x, y float64) {
					e.ResetScratch()
					e.SolvePoint(x, y)
				},
			)
			speedup := ns[0] / ns[2]
			b.ReportMetric(ns[2], "evaluator_ns/point")
			b.ReportMetric(ns[1]/ns[2], "x_vs_closure")
			b.ReportMetric(speedup, "x_vs_seed")
			if speedup < minSpeedup {
				b.Errorf("evaluator %.2fx vs seed, want >= %d", speedup, minSpeedup)
			}
		}
	})

	b.Run("scaling", func(b *testing.B) {
		// scalingNs times a full-grid solve at 1 worker and at w after one
		// warm-up solve each, alternating the two within every rep with
		// GOMAXPROCS set to the solve's worker count, so transient machine
		// load hits both alike, and returns each one's fastest rep.
		scalingNs := func(w int) (one, many float64) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			solvers := [2]GridSolver{{Workers: 1}, {Workers: w}}
			tgts := [2]*grid.Grid{target.Clone(), target.Clone()}
			best := [2]float64{math.Inf(1), math.Inf(1)}
			for r := -1; r < reps; r++ { // rep -1 warms the per-worker evaluators
				for k := range solvers {
					runtime.GOMAXPROCS(solvers[k].Workers)
					t0 := time.Now()
					solvers[k].Solve(p, tgts[k], 0)
					if r >= 0 {
						best[k] = math.Min(best[k], float64(time.Since(t0)))
					}
				}
			}
			return best[0], best[1]
		}
		for _, row := range []struct {
			workers    int
			minScaling float64 // 0 reports only
		}{{2, 0}, {4, 1.6}} {
			b.Run(fmt.Sprintf("workers=%d", row.workers), func(b *testing.B) {
				if n := runtime.NumCPU(); n < row.workers {
					b.Skipf("%d-worker scaling needs %d CPUs, have %d", row.workers, row.workers, n)
				}
				for i := 0; i < b.N; i++ {
					one, many := scalingNs(row.workers)
					speedup := one / many
					b.ReportMetric(speedup, "x_vs_1_worker")
					if speedup < row.minScaling {
						b.Errorf("GridSolver %.2fx at %d workers vs 1, want >= %.1f", speedup, row.workers, row.minScaling)
					}
				}
			})
		}
	})
}
