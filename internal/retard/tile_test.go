package retard

import (
	"fmt"
	"testing"

	"beamdyn/internal/analytic"
	"beamdyn/internal/grid"
	"beamdyn/internal/phys"
	"beamdyn/internal/quadrature"
)

// buildHistoryWide is buildHistory with the bunch's transverse sigmas
// scaled by k: same step count, same grid resolution and subregion layout,
// different charge-support boxes.
func buildHistoryWide(steps, nx int, params Params, k float64) (*grid.History, phys.Beam) {
	return buildHistoryAt(steps, nx, nx, params, 0, k)
}

// solveGrid runs one GridSolver configuration and returns the target grid
// and a flat copy of the per-point results.
func solveGrid(p *Problem, src *grid.Grid, nx, ny int, s *GridSolver) (*grid.Grid, []PointResult) {
	target := cloneGeometry(src, nx, ny)
	res := s.Solve(p, target, 0)
	out := make([]PointResult, len(res))
	copy(out, res)
	return target, out
}

// TestTiledSolveMatchesClosureAllKernels is the tile layer's core
// equivalence guarantee: the cache-blocked tiled dispatch must reproduce
// SolvePointClosure bitwise — integral, error estimate, evaluation count,
// partition and pattern — for every inner Newton-Cotes rule, every radial
// weight mode (cbrt, cbrt², generic pow) and every worker count.
func TestTiledSolveMatchesClosureAllKernels(t *testing.T) {
	for _, inner := range []quadrature.NewtonCotesOrder{quadrature.Trapezoid, quadrature.Simpson, quadrature.Boole} {
		for _, wexp := range []float64{1.0 / 3, 2.0 / 3, 0.5} {
			params := testParams()
			params.Inner = inner
			params.WeightExp = wexp
			h, _ := buildHistory(8, 32, params)
			p := NewProblem(h, params)
			src := h.At(7)
			for _, workers := range []int{1, 2, 3, 4} {
				tag := fmt.Sprintf("inner=%d wexp=%g workers=%d", inner, wexp, workers)
				s := GridSolver{Workers: workers, tileW: 8, tileH: 8}
				target, res := solveGrid(p, src, 16, 16, &s)
				if st := s.LastStats(); !st.Tiled {
					t.Fatalf("%s: expected the tiled dispatch (got fallback)", tag)
				}
				for iy := 0; iy < target.NY; iy++ {
					for ix := 0; ix < target.NX; ix++ {
						x, y := target.Point(ix, iy)
						want := p.SolvePointClosure(x, y)
						got := res[iy*target.NX+ix]
						samePointResult(t, fmt.Sprintf("%s point (%d,%d)", tag, ix, iy), got, want)
						if target.At(ix, iy, 0) != want.I {
							t.Fatalf("%s: grid value at (%d,%d) = %v != %v",
								tag, ix, iy, target.At(ix, iy, 0), want.I)
						}
					}
				}
			}
		}
	}
}

// TestTiledMatchesPerPointAcrossShapes pins tiled vs per-point A/B
// equality for a spread of tile shapes (including edge-clamping shapes
// that do not divide the grid) and worker counts, against the 1-worker
// solve. The default 32x16 tile cuts the 24x24 grid into 2 tiles, too few
// for 3 or more workers, so those rows run the per-row fallback. Workers
// claim tiles and rows in an order that depends on timing, so each solve
// repeats 20 times on the same solver, and every repeat must match.
func TestTiledMatchesPerPointAcrossShapes(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 32, params)
	p := NewProblem(h, params)
	src := h.At(7)

	ref := GridSolver{Workers: 1}
	refGrid, refRes := solveGrid(p, src, 24, 24, &ref)

	for _, shape := range [][2]int{{4, 4}, {8, 3}, {5, 7}, {24, 1}, {1, 24}, {32, 16}} {
		for _, workers := range []int{1, 2, 3, 4, 7} {
			s := GridSolver{Workers: workers, tileW: shape[0], tileH: shape[1]}
			wantTiled := grid.NewTileGrid(24, 24, shape[0], shape[1]).NumTiles() >= workers
			for rep := 0; rep < 20; rep++ {
				tag := fmt.Sprintf("tile=%dx%d workers=%d repeat=%d", shape[0], shape[1], workers, rep)
				tg, res := solveGrid(p, src, 24, 24, &s)
				if got := s.LastStats().Tiled; got != wantTiled {
					t.Fatalf("%s: tiled dispatch = %v, want %v", tag, got, wantTiled)
				}
				for i := range refGrid.Data {
					if tg.Data[i] != refGrid.Data[i] {
						t.Fatalf("%s: grid datum %d = %v != %v", tag, i, tg.Data[i], refGrid.Data[i])
					}
				}
				for i := range refRes {
					samePointResult(t, fmt.Sprintf("%s result %d", tag, i), res[i], refRes[i])
				}
			}
		}
	}
}

// TestGridSolverCrossoverFallback pins the crossover heuristic: a grid too
// small to give every worker a tile falls back to the per-point row-band
// dispatch (surfaced via LastStats, which core publishes as
// rp_tile_fallback_total), while a grid with enough tiles dispatches tiled
// — and both paths agree bitwise.
func TestGridSolverCrossoverFallback(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 32, params)
	p := NewProblem(h, params)
	src := h.At(7)

	// 8x8 grid under the default 32x16 tile -> one tile < 4 workers.
	small := GridSolver{Workers: 4}
	smallGrid, _ := solveGrid(p, src, 8, 8, &small)
	st := small.LastStats()
	if st.Tiled {
		t.Fatal("8x8 grid with 4 workers should fall back to per-point dispatch")
	}
	if st.TileSolves != 0 {
		t.Fatalf("fallback path recorded %d tile solves, want 0", st.TileSolves)
	}

	// Same grid forced through tiles small enough to feed every worker
	// must match the fallback bitwise.
	tiny := GridSolver{Workers: 4, tileW: 2, tileH: 2}
	tinyGrid, _ := solveGrid(p, src, 8, 8, &tiny)
	if st := tiny.LastStats(); !st.Tiled {
		t.Fatal("2x2 tiles on an 8x8 grid should dispatch tiled")
	}
	for i := range smallGrid.Data {
		if tinyGrid.Data[i] != smallGrid.Data[i] {
			t.Fatalf("tiled vs fallback: grid datum %d = %v != %v", i, tinyGrid.Data[i], smallGrid.Data[i])
		}
	}
}

// TestGridSolverObsCounters checks the statistics behind the rp_* series
// core publishes: after a tiled Solve, tile solves equal the tile count,
// scratch hits equal the tiles beyond each worker's first, and the radial
// memo reports real reuse.
func TestGridSolverObsCounters(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 32, params)
	p := NewProblem(h, params)
	src := h.At(7)

	workers := 2
	s := GridSolver{Workers: workers, tileW: 8, tileH: 8}
	target := cloneGeometry(src, 24, 24)
	s.Solve(p, target, 0)

	st := s.LastStats()
	numTiles := 3 * 3 // 24x24 grid in 8x8 tiles
	if !st.Tiled || st.TileW != 8 || st.TileH != 8 {
		t.Fatalf("stats = %+v, want tiled 8x8", st)
	}
	if st.TileSolves != uint64(numTiles) {
		t.Fatalf("tile solves = %d, want %d", st.TileSolves, numTiles)
	}
	if want := uint64(numTiles - workers); st.TileHits != want {
		t.Fatalf("tile hits = %d, want %d (tiles beyond each worker's gather)", st.TileHits, want)
	}
	if st.MemoProbes == 0 || st.MemoHits == 0 {
		t.Fatalf("radial memo saw no reuse: %+v", st)
	}
	if st.MemoHits > st.MemoProbes {
		t.Fatalf("memo hits %d exceed probes %d", st.MemoHits, st.MemoProbes)
	}

	// A second Solve must not double-count the first one's statistics.
	s.Solve(p, target, 0)
	if st2 := s.LastStats(); st2.TileSolves != uint64(numTiles) {
		t.Fatalf("second solve tile solves = %d, want %d", st2.TileSolves, numTiles)
	}
}

// TestTileEvaluatorGatherDedup checks the SoA gather: adjacent subregions
// share two of their three temporal planes, so the scratch arena must hold
// each distinct plane exactly once, every repointed plane must alias the
// arena, and sampled values must be bitwise unchanged.
func TestTileEvaluatorGatherDedup(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 32, params)
	p := NewProblem(h, params)

	// Count distinct planes and total plane floats via a fresh evaluator
	// (NewTileEvaluator repoints its own planes during gather).
	ref := NewEvaluator(p)
	type key = *float64
	distinct := map[key]int{}
	var refVals [][]float64
	for j := range ref.sub {
		s := &ref.sub[j]
		if !s.ok {
			continue
		}
		for _, pl := range []*plane{&s.pm, &s.p0, &s.pp} {
			if len(pl.data) == 0 {
				continue
			}
			if _, seen := distinct[&pl.data[0]]; !seen {
				distinct[&pl.data[0]] = len(pl.data)
			}
			refVals = append(refVals, pl.data)
		}
	}
	var want int
	for _, n := range distinct {
		want += n
	}

	te := NewTileEvaluator(p)
	if len(te.scratch) != want {
		t.Fatalf("scratch holds %d floats, want %d (deduped planes)", len(te.scratch), want)
	}
	if len(te.seen) != len(distinct) {
		t.Fatalf("gathered %d distinct planes, want %d", len(te.seen), len(distinct))
	}
	var i int
	for j := range te.E.sub {
		s := &te.E.sub[j]
		if !s.ok {
			continue
		}
		for _, pl := range []*plane{&s.pm, &s.p0, &s.pp} {
			if len(pl.data) == 0 {
				continue
			}
			for k := range pl.data {
				if pl.data[k] != refVals[i][k] {
					t.Fatalf("subregion %d plane value %d changed: %v != %v", j, k, pl.data[k], refVals[i][k])
				}
			}
			i++
		}
	}

	// Re-gather after Reset must reuse the arena capacity.
	before := cap(te.scratch)
	te.Reset(p)
	if cap(te.scratch) != before {
		t.Fatalf("Reset regrew the scratch arena: cap %d -> %d", before, cap(te.scratch))
	}
}

// TestRadialMemoCrossStepReuse advances the history by one step and
// requires (a) the reused evaluator to keep serving radial-memo hits —
// the subregion geometry (width, count, weight mode) is unchanged, so the
// per-radius weight and subregion index survive Reset — and (b) results
// bitwise identical to a fresh closure solve, proving the surviving
// entries are never stale.
func TestRadialMemoCrossStepReuse(t *testing.T) {
	params := testParams()
	h, beam := buildHistory(8, 32, params)
	p1 := NewProblem(h, params)
	e := NewEvaluator(p1)
	g1 := h.At(7)
	for _, pt := range sweepPoints(g1) {
		e.ResetScratch()
		e.SolvePoint(pt[0], pt[1])
	}
	e.MemoStats(true) // clear; only post-Reset traffic below counts

	// Push step 8: same grid geometry translated with the bunch.
	v := beam.Beta() * phys.C
	cy := 8 * v * params.Dt
	hx, hy := 5*beam.SigmaX, 5*beam.SigmaY
	g := grid.New(32, 32, grid.MomentComponents, -hx, cy-hy, 2*hx/31, 2*hy/31)
	g.Step = 8
	analytic.ContinuumDeposit(g, beam, 0, cy)
	h.Push(g)
	p2 := NewProblem(h, params)

	e.Reset(p2)
	g2 := h.At(8)
	for _, pt := range sweepPoints(g2) {
		want := p2.SolvePointClosure(pt[0], pt[1])
		e.ResetScratch()
		got := e.SolvePoint(pt[0], pt[1])
		samePointResult(t, fmt.Sprintf("step 8 point (%g,%g)", pt[0], pt[1]), got, want)
	}
	hits, misses := e.MemoStats(false)
	if hits == 0 {
		t.Fatalf("no radial-memo hits after cross-step Reset (misses=%d) — memo not surviving steps", misses)
	}
}

// TestRadialMemoInvalidationOnGeometryChange rebinds an evaluator to a
// problem whose theta-window geometry differs (a wider bunch, i.e. changed
// per-subregion support boxes, as at a bend entry/exit) and requires
// bitwise agreement with a fresh closure solve: boxGen stamping must
// invalidate every cached narrow-cone half-angle that depended on the old
// boxes.
func TestRadialMemoInvalidationOnGeometryChange(t *testing.T) {
	params := testParams()
	h1, _ := buildHistory(8, 32, params)
	p1 := NewProblem(h1, params)
	e := NewEvaluator(p1)
	g1 := h1.At(7)
	for _, pt := range sweepPoints(g1) {
		e.ResetScratch()
		e.SolvePoint(pt[0], pt[1])
	}

	// Same subregion layout (Dt, Kappa unchanged -> rgen stamp survives),
	// different support boxes: the bunch is 3x wider in both planes.
	h3, _ := buildHistoryWide(8, 32, params, 3)
	p3 := NewProblem(h3, params)
	if p3.NumSub() != p1.NumSub() || p3.SubWidth() != p1.SubWidth() {
		t.Fatal("fixture drift: geometry change altered the subregion layout")
	}

	e.Reset(p3)
	g3 := h3.At(7)
	for _, pt := range sweepPoints(g3) {
		want := p3.SolvePointClosure(pt[0], pt[1])
		e.ResetScratch()
		got := e.SolvePoint(pt[0], pt[1])
		samePointResult(t, fmt.Sprintf("wide-bunch point (%g,%g)", pt[0], pt[1]), got, want)
	}
}
