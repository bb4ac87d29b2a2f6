package kernels

import (
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/hostpar"
	"beamdyn/internal/obs"
	"beamdyn/internal/quadrature"
	"beamdyn/internal/retard"
)

// TwoPhase implements the Two-Phase-RP kernel of [9]: a first phase that
// applies Simpson's rule on a coarse uniform partition with a row-major
// point-to-thread mapping, and a second, globally adaptive phase that
// iteratively refines the intervals that missed the tolerance over a
// compacted global work list — one breadth-first round per refinement
// level, with the interval list re-read from global memory every round and
// intervals of many different grid points and radii interleaving in each
// warp. The algorithm balances work well but re-evaluates interval
// endpoints every round and ignores inter-thread data locality: exactly
// the inefficiencies [10] and this paper address.
type TwoPhase struct {
	Dev *gpusim.Device
	// HostWorkers bounds the host-side worker count (<= 0: GOMAXPROCS).
	HostWorkers int

	obs   *obs.Observer
	store stepStore
}

// The Two-Phase kernel's launch configuration, that of [9].
const (
	// twoPhaseThreadsPerBlock is the launch block size of both phases.
	twoPhaseThreadsPerBlock = 256
	// twoPhasePanelsPerSub is the phase-1 panels per radial subregion.
	twoPhasePanelsPerSub = 1
)

// SetObserver implements Observable.
func (t *TwoPhase) SetObserver(o *obs.Observer) { t.obs = o }

// SetHostWorkers implements HostParallel.
func (t *TwoPhase) SetHostWorkers(n int) { t.HostWorkers = n }

// NewTwoPhase returns the kernel on dev; its launch configuration is
// fixed, so a bare &TwoPhase{Dev: dev} is the same kernel.
func NewTwoPhase(dev *gpusim.Device) *TwoPhase {
	return &TwoPhase{Dev: dev}
}

// Name implements Algorithm.
func (t *TwoPhase) Name() string { return "Two-Phase-RP" }

// Reset implements Algorithm; the Two-Phase kernel carries no state across
// steps, only reusable storage.
func (t *TwoPhase) Reset() {}

// Step implements Algorithm.
func (t *TwoPhase) Step(p *retard.Problem, target *grid.Grid, comp int) *StepResult {
	workers := hostpar.Workers(t.HostWorkers)
	points := buildPoints(p, target, workers)
	st := &t.store
	st.begin(t.Dev, p, len(points))
	res := &StepResult{}
	// Phase 1 partitions are computed per lane, into the SM's scratch.
	coarse := st.coarsePattern(p.NumSub(), twoPhasePanelsPerSub)
	subW := p.SubWidth()
	n, tpb := len(points), twoPhaseThreadsPerBlock
	spec := fixedPhaseSpec{
		name:            "twophase/uniform",
		blocks:          st.blocks.get([4]int{n, tpb}, func() [][]int { return rowMajorBlocks(n, tpb) }),
		threadsPerBlock: tpb,
		partFor: func(sm *smScratch, i, _ int) ([]float64, uintptr) {
			sm.part = coarse.AppendUniformPartition(sm.part[:0], subW, points[i].R)
			return sm.part, 0
		},
	}
	sp := t.obs.Span("twophase/uniform", target.Step)
	m, entries := fixedPhase(t.Dev, st, p, points, spec)
	res.Metrics.Add(m)
	res.Fixed = m
	res.Launches++
	res.FallbackEntries = len(entries)
	sp.End(obs.I("fallback_entries", len(entries)), obs.F("sim_sec", m.Time))

	sp = t.obs.Span("twophase/refine", target.Step)
	rm, launches := t.refineRounds(st, p, points, entries)
	res.Metrics.Add(rm)
	res.Adaptive = rm
	res.Launches += launches
	sp.End(obs.I("rounds", launches), obs.F("sim_sec", rm.Time))

	st.finish(p, points, workers)
	storeResults(points, target, comp, workers)
	res.Points = points
	return res
}

// refineRounds is [9]'s globally adaptive refinement: each round launches
// one thread per pending interval, evaluating the full 5-point Simpson
// pair from scratch (no evaluation reuse across rounds — each round's
// intervals are fresh global-memory entries), then splits the failures for
// the next round. The interval list doubles where refinement continues,
// scrambling grid points and radii within warps round by round. Accepted
// intervals merge into their points' partitions in round order and entry
// order; consecutive rounds alternate between the store's two work lists.
func (t *TwoPhase) refineRounds(st *stepStore, p *retard.Problem, points []Point, entries []workEntry) (gpusim.Metrics, int) {
	var total gpusim.Metrics
	launches := 0
	const tpb = twoPhaseThreadsPerBlock
	for depth := 0; len(entries) > 0 && depth < p.MaxDepth; depth++ {
		st.results = hostpar.Resize(st.results, len(entries))
		results := st.results
		st.clearBounds()
		es := entries
		blocks := (len(es) + tpb - 1) / tpb
		m := t.Dev.Run(gpusim.Launch{
			Name:            "twophase/refine",
			Blocks:          blocks,
			ThreadsPerBlock: tpb,
			Kernel: func(lane *gpusim.Lane, block, thread int) {
				idx := block*tpb + thread
				if idx >= len(es) {
					return
				}
				e := es[idx]
				smID := block % len(st.sms)
				sm := &st.sms[smID]
				lane.Begin(kindRefine)
				for f := 0; f < 4; f++ {
					lane.Load(workAddr(idx, f))
				}
				lane.Load(pointAddr(e.pt, 0))
				lane.Load(pointAddr(e.pt, 1))
				lane.Flops(6)
				f := st.pool.bind(points[e.pt].X, points[e.pt].Y, lane, block)
				est := quadrature.SimpsonRule(f, e.a, e.b)
				lane.Flops(14)
				res := &results[idx]
				*res = laneResult{smRange: smRange{sm: int32(smID), lo: int32(len(sm.bounds))}}
				if est.Err <= e.tol || depth == p.MaxDepth-1 {
					res.i = est.I
					res.err = est.Err
					sm.bounds = append(sm.bounds, e.a, e.b)
				}
				res.hi = int32(len(sm.bounds))
				lane.Begin(kindFinish)
				for f := 0; f < 3; f++ {
					lane.Store(workAddr(idx, f))
				}
				lane.Flops(2)
			},
		})
		total.Add(m)
		launches++
		next := st.next[:0]
		for i, e := range entries {
			if r := &results[i]; r.hi > r.lo {
				st.fold(points, e, r)
			} else {
				mid := 0.5 * (e.a + e.b)
				next = append(next,
					workEntry{a: e.a, b: mid, tol: e.tol / 2, pt: e.pt},
					workEntry{a: mid, b: e.b, tol: e.tol / 2, pt: e.pt})
			}
		}
		st.entries, st.next = next, entries
		entries = next
	}
	total.Kernels = launches
	return total, launches
}
