package retard

import (
	"beamdyn/internal/grid"
	"beamdyn/internal/hostpar"
)

// planeRef records one distinct history plane already gathered into a
// TileEvaluator's scratch: the first element of its original backing slice
// (the dedup key — subregions j and j+1 share two of their three temporal
// planes) and its offset in the scratch buffer.
type planeRef struct {
	key *float64
	off int
}

// TileEvaluator is an Evaluator plus step-lifetime SoA plane scratch: on
// every Reset it gathers each distinct history-plane the problem's
// subregions reference into one contiguous buffer — loaded once per step,
// shared by every tile and point the evaluator solves — and repoints the
// evaluator's hoisted planes at the copies. Values are copied verbatim, so
// every sample reads the identical float64 the in-place plane holds and
// results stay bitwise identical to the seed's closure path; what changes
// is layout: the 3-plane temporal stencil walks one contiguous arena
// instead of hopping between history-ring allocations.
type TileEvaluator struct {
	E *Evaluator

	scratch []float64
	seen    []planeRef

	// fresh marks scratch as just-gathered; the first SolveTile after a
	// gather is the load, later tiles are rp_tile_hits_total hits.
	fresh      bool
	tileHits   uint64
	tileSolves uint64
}

// NewTileEvaluator returns a tile evaluator bound to p, with p's history
// planes gathered.
func NewTileEvaluator(p *Problem) *TileEvaluator {
	t := &TileEvaluator{E: NewEvaluator(p)}
	t.gather()
	return t
}

// Reset rebinds to a problem and re-gathers its history planes into the
// scratch arena (reusing its capacity).
func (t *TileEvaluator) Reset(p *Problem) {
	t.E.Reset(p)
	t.gather()
}

// gather copies every distinct plane the evaluator's subregions reference
// into one contiguous scratch buffer and repoints the subEval planes at
// the copies. Simulated base addresses are left untouched: a lane attached
// later records the same addresses the in-place planes would.
func (t *TileEvaluator) gather() {
	// Pre-size so the arena never reallocates mid-gather: every plane copy
	// must land in the same backing array for the planes to be contiguous.
	var total int
	for j := range t.E.sub {
		if s := &t.E.sub[j]; s.ok {
			total += len(s.pm.data) + len(s.p0.data) + len(s.pp.data)
		}
	}
	if cap(t.scratch) < total {
		t.scratch = make([]float64, 0, total)
	}
	t.scratch = t.scratch[:0]
	t.seen = t.seen[:0]
	for j := range t.E.sub {
		s := &t.E.sub[j]
		if !s.ok {
			continue
		}
		t.gatherPlane(&s.pm)
		t.gatherPlane(&s.p0)
		t.gatherPlane(&s.pp)
	}
	t.fresh = true
}

// gatherPlane copies one plane into scratch — or finds the copy an earlier
// subregion already made of the same underlying grid — and repoints it.
func (t *TileEvaluator) gatherPlane(pl *plane) {
	if len(pl.data) == 0 {
		return
	}
	key := &pl.data[0]
	for _, ref := range t.seen {
		if ref.key == key {
			pl.data = t.scratch[ref.off : ref.off+len(pl.data)]
			return
		}
	}
	off := len(t.scratch)
	t.scratch = append(t.scratch, pl.data...)
	t.seen = append(t.seen, planeRef{key: key, off: off})
	pl.data = t.scratch[off : off+len(pl.data)]
}

// SolveTile evaluates every point of one tile in row-major order, writing
// per-point results into the row-major results slice and the integral into
// component comp of target. Point results are independent, so any tile
// order reproduces the per-point solve bit for bit.
func (t *TileEvaluator) SolveTile(target *grid.Grid, comp int, tl grid.Tile, results []PointResult) {
	t.tileSolves++
	if t.fresh {
		t.fresh = false
	} else {
		t.tileHits++
	}
	e := t.E
	for iy := tl.IY0; iy < tl.IY0+tl.NY; iy++ {
		for ix := tl.IX0; ix < tl.IX0+tl.NX; ix++ {
			x, y := target.Point(ix, iy)
			res := e.SolvePoint(x, y)
			results[iy*target.NX+ix] = res
			target.Set(ix, iy, comp, res.I)
		}
	}
}

// TileStats returns (and with reset=true clears) the scratch-reuse hit
// count and the total tile-solve count — the instrumentation behind
// rp_tile_hits_total / rp_tile_solves_total.
func (t *TileEvaluator) TileStats(reset bool) (hits, solves uint64) {
	hits, solves = t.tileHits, t.tileSolves
	if reset {
		t.tileHits, t.tileSolves = 0, 0
	}
	return hits, solves
}

// Default cache-block tile shape: 32x16 points keeps a tile's stencil
// footprint and the per-point quadrature state L1/L2-resident while still
// producing enough tiles on small grids to feed every worker.
const (
	defaultTileW = 32
	defaultTileH = 16
)

// GridSolver evaluates the rp-integral over whole grids on the hostpar
// worker pool, with one persistent TileEvaluator per worker. The target is
// decomposed into cache-block tiles (32x16 points) numbered row-major, and
// the workers claim them (hostpar.Claim): worker w solves tile w, then the
// next unsolved tile, until none is left. Tile costs are far from uniform:
// on a 128x128 grid the half of the tiles that the retarded history trails
// into costs about twice the other half, so contiguous tile ranges left
// one of two workers idle for about half of every solve. Claiming costs no
// locality that shows: on that grid the radial-memo hit ratio (0.898) and
// the tile-scratch reuse ratio (0.9375) are what contiguous ranges got.
// Each point's result depends only on the point, so the output is bitwise
// identical for every worker count, tile shape and claim order; the
// radial-memo counters depend on which worker solved which tile, the
// results do not. When the grid is so small that the tile count cannot
// feed every worker, Solve falls back to the per-point dispatch, whose
// workers claim grid rows the same way. The zero value is ready to use.
type GridSolver struct {
	// Workers bounds the worker count; values <= 0 mean GOMAXPROCS.
	Workers int

	// tileW, tileH override the cache-block tile shape when > 0; only
	// this package's tests set them.
	tileW, tileH int

	evals   []*TileEvaluator
	results []PointResult
	last    SolveStats
}

// SolveStats is the cache instrumentation of one GridSolver.Solve: scratch
// arena reuse across tiles, radial-memo reuse across points, the tile
// shape used and whether the tiled dispatch actually ran (false means the
// crossover heuristic fell back to per-point row bands).
type SolveStats struct {
	TileHits   uint64
	TileSolves uint64
	MemoHits   uint64
	MemoProbes uint64
	TileW      int
	TileH      int
	Tiled      bool
}

// LastStats returns the instrumentation of the most recent Solve.
func (s *GridSolver) LastStats() SolveStats { return s.last }

// Solve evaluates the rp-integral at every point of target and stores the
// integral in component comp, returning the per-point results in
// row-major order. The returned slice and the per-point Partition/Pattern
// slices are owned by the solver and stay valid until its next Solve;
// steady-state Solves allocate nothing beyond the pool fan-out.
func (s *GridSolver) Solve(p *Problem, target *grid.Grid, comp int) []PointResult {
	s.results = hostpar.Resize(s.results, target.NX*target.NY)
	results := s.results
	w := hostpar.Workers(s.Workers)
	tw, th := s.tileW, s.tileH
	if tw <= 0 {
		tw = defaultTileW
	}
	if th <= 0 {
		th = defaultTileH
	}
	tg := grid.NewTileGrid(target.NX, target.NY, tw, th)
	// Crossover heuristic: tiling pays when every worker gets at least
	// one tile; otherwise idle workers would stall the step behind a
	// too-coarse decomposition and claiming single rows balances better.
	tiled := tg.NumTiles() >= w
	if !tiled && w > target.NY {
		w = target.NY
	}
	for len(s.evals) < w {
		s.evals = append(s.evals, nil)
	}
	// evaluator returns worker's evaluator, bound to p on the worker's
	// first unit, which hostpar.Claim makes unit number worker.
	evaluator := func(worker, unit int) *TileEvaluator {
		t := s.evals[worker]
		if unit != worker {
			return t
		}
		if t == nil {
			t = NewTileEvaluator(p)
			s.evals[worker] = t
		} else {
			t.Reset(p)
		}
		t.E.ResetScratch()
		return t
	}
	if tiled {
		hostpar.Claim(tg.NumTiles(), w, func(worker, i int) {
			evaluator(worker, i).SolveTile(target, comp, tg.At(i), results)
		})
	} else {
		hostpar.Claim(target.NY, w, func(worker, iy int) {
			e := evaluator(worker, iy).E
			for ix := 0; ix < target.NX; ix++ {
				x, y := target.Point(ix, iy)
				res := e.SolvePoint(x, y)
				results[iy*target.NX+ix] = res
				target.Set(ix, iy, comp, res.I)
			}
		})
	}
	s.collect(w, tg, tiled)
	return results
}

// collect drains the per-worker memo/tile counters into the statistics
// LastStats returns, clearing them so one Solve's statistics are never
// double-counted into the next.
func (s *GridSolver) collect(w int, tg grid.TileGrid, tiled bool) {
	st := SolveStats{TileW: tg.TW, TileH: tg.TH, Tiled: tiled}
	for i := 0; i < w && i < len(s.evals); i++ {
		t := s.evals[i]
		if t == nil {
			continue
		}
		hits, solves := t.TileStats(true)
		st.TileHits += hits
		st.TileSolves += solves
		mh, mm := t.E.MemoStats(true)
		st.MemoHits += mh
		st.MemoProbes += mh + mm
	}
	s.last = st
}
