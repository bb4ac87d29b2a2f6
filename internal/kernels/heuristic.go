package kernels

import (
	"beamdyn/internal/access"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/hostpar"
	"beamdyn/internal/obs"
	"beamdyn/internal/retard"
)

// Heuristic implements the Heuristic-RP kernel of [10], the fastest prior
// method, built on two heuristics:
//
//  1. Data reuse — grid points are grouped into spatial tiles so the
//     threads of a block read overlapping integrand stencils (locality
//     between cache-sharing threads), and each point reuses the partition
//     observed at the previous time step as its initial partition
//     (temporal locality of the access patterns).
//  2. Workload balance — refinement intervals are sorted by estimated cost
//     so warps process similarly sized work items.
//
// Its forecast is persistence: each point's pattern from the previous
// step. On the co-moving lattice Predictive-RP's 4-NN forecast reproduces
// that same pattern too, so the two kernels reuse the same observation
// and differ in what they build from it: per-point partitions at
// per-point addresses here, against RP-CLUSTERING and one merged
// partition per block there. When patterns change from one step to the
// next, stale partitions fail the tolerance and the work spills into
// adaptive refinement.
type Heuristic struct {
	Dev *gpusim.Device
	// HostWorkers bounds the host-side worker count (<= 0: GOMAXPROCS).
	HostWorkers int

	prevPat   []access.Pattern
	prevNX    int
	prevNY    int
	parts     [][]float64
	partAddrs []uintptr
	arenas    []hostpar.Arena[float64] // per worker: this step's parts
	partBuf   [][]float64              // per worker: partition append scratch
	obs       *obs.Observer
	store     stepStore
}

// SetObserver implements Observable.
func (h *Heuristic) SetObserver(o *obs.Observer) { h.obs = o }

// SetHostWorkers implements HostParallel.
func (h *Heuristic) SetHostWorkers(n int) { h.HostWorkers = n }

// The Heuristic kernel's configuration, that of [10].
const (
	// heuristicThreadsPerBlock is the refinement launches' block size.
	heuristicThreadsPerBlock = 256
	// heuristicTileW x heuristicTileH grid points make one reuse-phase
	// block: fine enough for SM load balance, wide enough for warp
	// coalescing.
	heuristicTileW, heuristicTileH = 32, 4
	// heuristicPanelsPerSub seeds the first step's partition.
	heuristicPanelsPerSub = 2
)

// NewHeuristic returns the kernel on dev; its configuration is fixed, so
// a bare &Heuristic{Dev: dev} is the same kernel.
func NewHeuristic(dev *gpusim.Device) *Heuristic {
	return &Heuristic{Dev: dev}
}

// Name implements Algorithm.
func (h *Heuristic) Name() string { return "Heuristic-RP" }

// Reset implements Algorithm, dropping the remembered patterns.
func (h *Heuristic) Reset() { h.prevPat, h.prevNX, h.prevNY = nil, 0, 0 }

// Step implements Algorithm.
func (h *Heuristic) Step(p *retard.Problem, target *grid.Grid, comp int) *StepResult {
	workers := hostpar.Workers(h.HostWorkers)
	points := buildPoints(p, target, workers)
	st := &h.store
	st.begin(h.Dev, p, len(points))
	res := &StepResult{}
	if h.prevNX != target.NX || h.prevNY != target.NY {
		h.prevPat = nil
	}

	// Temporal-reuse heuristic: each point's partition is rebuilt from the
	// access pattern observed at the previous time step (persistence
	// forecast), or the coarse uniform seed on the first step. Partitions
	// live at per-point device addresses, so a warp's breakpoint loads
	// scatter (one array per lane) — the memory cost the Predictive
	// kernel's shared merged partitions avoid. Each partition depends only
	// on its own point, so the build fans out over the worker pool into
	// per-worker arenas; the address cursor is sequential and runs as a
	// second, serial pass.
	h.parts = hostpar.Resize(h.parts, len(points))
	parts := h.parts
	h.partAddrs = hostpar.Resize(h.partAddrs, len(points))
	if len(h.arenas) < workers {
		h.arenas = make([]hostpar.Arena[float64], workers)
		h.partBuf = make([][]float64, workers)
	}
	numSub, subW := p.NumSub(), p.SubWidth()
	coarse := st.coarsePattern(numSub, heuristicPanelsPerSub)
	// Patterns all have the step's subregion count, so either every point
	// reuses its previous pattern or every point runs the seed.
	reuse := len(h.prevPat) > 0 && len(h.prevPat[0]) == numSub
	res.Forecast = reuse
	hostpar.For(len(points), workers, func(w, lo, hi int) {
		arena, buf := &h.arenas[w], h.partBuf[w]
		arena.Reset()
		for i := lo; i < hi; i++ {
			pat := coarse
			if reuse {
				pat = h.prevPat[i]
			}
			buf = pat.AppendUniformPartition(buf[:0], subW, points[i].R)
			parts[i] = arena.Copy(buf)
		}
		h.partBuf[w] = buf
	})
	var cursor uintptr
	for i := range parts {
		h.partAddrs[i] = RegionParts + cursor
		cursor += uintptr(len(parts[i])) * 8
	}

	nx, ny, tw, th := target.NX, target.NY, heuristicTileW, heuristicTileH
	spec := fixedPhaseSpec{
		name:            "heuristic/reuse",
		blocks:          st.blocks.get([4]int{nx, ny, tw, th}, func() [][]int { return tileBlocks(nx, ny, tw, th) }),
		threadsPerBlock: tw * th,
		partFor: func(_ *smScratch, i, _ int) ([]float64, uintptr) {
			return parts[i], h.partAddrs[i]
		},
	}
	sp := h.obs.Span("heuristic/reuse", target.Step)
	m, entries := fixedPhase(h.Dev, st, p, points, spec)
	res.Metrics.Add(m)
	res.Fixed = m
	res.Launches++
	res.FallbackEntries = len(entries)
	sp.End(obs.I("fallback_entries", len(entries)), obs.F("sim_sec", m.Time))

	sp = h.obs.Span("heuristic/refine", target.Step)
	rm, launches := adaptivePhase(h.Dev, st, p, points, entries, heuristicThreadsPerBlock, true, "heuristic/refine")
	res.Metrics.Add(rm)
	res.Adaptive = rm
	res.Launches += launches
	sp.End(obs.I("entries", len(entries)), obs.F("sim_sec", rm.Time))

	st.finish(p, points, workers)
	storeResults(points, target, comp, workers)

	// The persistence forecast (reuse of last step's pattern) is a model
	// too: its error against the observed patterns makes the Heuristic-RP
	// and Predictive-RP quality series directly comparable.
	if res.Forecast && h.obs.Enabled() {
		res.ForecastErr = forecastErrors(h.prevPat, points)
	}

	h.prevPat = hostpar.Resize(h.prevPat, len(points))
	prevPat := h.prevPat
	hostpar.For(len(points), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			prevPat[i] = points[i].Pattern
		}
	})
	h.prevNX, h.prevNY = target.NX, target.NY
	res.Points = points
	return res
}
