// Package kernels implements the three parallel algorithms the paper
// compares for the compute-retarded-potentials stage, all running on the
// simulated GPU of package gpusim:
//
//   - TwoPhase — the globally adaptive parallel quadrature of [9]
//     ("Two-Phase-RP kernel"): a uniform evaluation phase followed by
//     iterative refinement rounds over a compacted global interval list.
//   - Heuristic — the cache-aware heuristics of [10] ("Heuristic-RP
//     kernel"): temporal reuse of the previous step's partitions, spatial
//     tiling for data locality, and cost-sorted workload balancing.
//   - Predictive — this paper's Algorithm 1 ("Predictive-RP kernel"):
//     kNN-forecast access patterns, RP-CLUSTERING of grid points by
//     predicted pattern (warp-aligned contiguous segments by default,
//     literal k-means as an option), per-cluster merged partitions for
//     uniform control flow, and an adaptive safety net that also feeds
//     online learning.
//
// All three produce identical potentials to the sequential reference
// within the error tolerance; they differ in simulated-GPU behaviour
// (divergence, locality, wasted work), which is exactly what the paper's
// Tables I-II and Figure 4 measure.
package kernels

import (
	"math"
	"sort"

	"beamdyn/internal/access"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/hostpar"
	"beamdyn/internal/retard"
)

// Simulated device address-space regions for kernel-visible host arrays.
// Grid history occupies low addresses (assigned by grid.History); these
// regions hold the auxiliary arrays the kernels read and write.
const (
	// RegionPoints holds the per-grid-point 7-tuple objects of Algorithm 1
	// (64 bytes per point).
	RegionPoints uintptr = 1 << 32
	// RegionParts holds partition arrays (predicted, merged or previous).
	RegionParts uintptr = 1 << 33
	// RegionWork holds refinement work-list entries (32 bytes per entry).
	RegionWork uintptr = 1 << 34
)

// Unit kinds used by the kernels; divergent kinds at the same trace step
// serialise in the warp replay.
const (
	kindInit = iota
	kindPanel
	kindSkip
	kindFinish
	kindRefine
)

// Point is the host-side mirror of the paper's grid-point object: position,
// integral and error estimates, access pattern and partition.
type Point struct {
	X, Y float64
	// R is the irregular integration limit R(p).
	R float64
	// I and Err accumulate the rp-integral and error estimates.
	I, Err float64
	// Pattern and Partition are the observed access pattern and the
	// partition used, updated as Algorithm 1 lines 20-21 prescribe.
	Pattern   access.Pattern
	Partition []float64
}

// pointAddr returns the simulated address of field f of point i.
func pointAddr(i, f int) uintptr { return RegionPoints + uintptr(i)*64 + uintptr(f)*8 }

// workAddr returns the simulated address of field f of work entry i.
func workAddr(i, f int) uintptr { return RegionWork + uintptr(i)*32 + uintptr(f)*8 }

// HostTimes records the wall-clock host-side overheads of one step, the
// quantities reported in Table II alongside the simulated GPU time.
type HostTimes struct {
	// Clustering is the RP-CLUSTERING (k-means) time.
	Clustering float64
	// Predict is the forecast + partition-transform time.
	Predict float64
	// Train is the ONLINE-LEARNING time.
	Train float64
}

// HostParallel is implemented by kernels whose host-side stages run on the
// deterministic worker pool of internal/hostpar. SetHostWorkers bounds the
// worker count (values <= 0 mean runtime.GOMAXPROCS); fleet.Fleet
// forwards the setting to its per-device kernels. Every
// host loop partitions its index range statically and writes results by
// index, so a kernel's output is bitwise identical for every worker count.
type HostParallel interface {
	SetHostWorkers(n int)
}

// Overhead is the total host-side overhead.
func (h HostTimes) Overhead() float64 { return h.Clustering + h.Predict + h.Train }

// StepResult is the outcome of one compute-potentials step executed by a
// kernel. The caller owns it: every Step returns fresh Points, partitions
// and patterns (filled into a few step-sized slabs, not one object per
// point) that later steps never overwrite, while the kernel's lane and
// merge scratch is reused internally from step to step.
type StepResult struct {
	// Points holds the final per-point state in row-major target order.
	Points []Point
	// Metrics aggregates the simulated-GPU profiler counters of every
	// launch of the step.
	Metrics gpusim.Metrics
	// Host records host-side overhead wall times.
	Host HostTimes
	// FallbackEntries counts the subregions that failed the tolerance in
	// the predicted/fixed phase and went to adaptive refinement.
	FallbackEntries int
	// Forecast reports whether the kernel planned the step from a trained
	// forecast: Predictive-RP's model trained at the step's subregion
	// count, or Heuristic-RP's previous-step patterns of that length.
	// Two-Phase-RP has no forecast, and warm-up and bootstrap steps run
	// the uniform seed; only a forecast step's fallback measures the
	// forecast.
	Forecast bool
	// ForecastErr holds the per-point forecast errors (pattern distance,
	// in panels) of a Forecast step whose kernel had a live observer, in
	// no particular order; nil otherwise.
	ForecastErr []float64
	// Launches is the number of simulated kernel launches.
	Launches int
	// Fixed and Adaptive break Metrics down by phase: the fixed-partition
	// pass and the adaptive safety net.
	Fixed, Adaptive gpusim.Metrics
}

// Algorithm is the common interface of the three kernels: evaluate the
// rp-integral at every point of the target grid for the problem's current
// step, writing potentials into component comp of target. A kernel reuses
// its step storage, so one kernel value must not run concurrent Steps;
// fleet.Fleet holds one kernel per device.
type Algorithm interface {
	// Name returns the kernel's paper name.
	Name() string
	// Step runs one compute-potentials step.
	Step(p *retard.Problem, target *grid.Grid, comp int) *StepResult
	// Reset clears cross-step state (between independent experiments).
	Reset()
}

// gridCenter returns the physical centre of the target grid, the origin of
// the bunch-frame coordinates used as prediction features.
func gridCenter(target *grid.Grid) (cx, cy float64) {
	x0, y0, x1, y1 := target.Bounds()
	return 0.5 * (x0 + x1), 0.5 * (y0 + y1)
}

// buildPoints constructs the per-point task list for a target grid. The
// fill runs on the host worker pool (R evaluations are pure reads of the
// problem); the backing array is fresh each step because StepResult hands
// the points to the caller.
func buildPoints(p *retard.Problem, target *grid.Grid, workers int) []Point {
	pts := make([]Point, target.NX*target.NY)
	hostpar.For(len(pts), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y := target.Point(i%target.NX, i/target.NX)
			pts[i] = Point{X: x, Y: y, R: p.R(x, y)}
		}
	})
	return pts
}

// storeResults writes the accumulated potentials into the target grid,
// each worker owning a disjoint range of cells.
func storeResults(points []Point, target *grid.Grid, comp int, workers int) {
	hostpar.For(len(points), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			target.Set(i%target.NX, i/target.NX, comp, points[i].I)
		}
	})
}

// workEntry is one refinement task: integrate f over [a, b] for point pt
// to tolerance tol.
type workEntry struct {
	a, b float64
	tol  float64
	pt   int
}

// adaptiveFrame is one pending interval of the adaptive phase's
// depth-first stack. It carries the interval's endpoint and midpoint
// integrand values plus its coarse estimate, so a refinement step
// evaluates only the two new quarter points — the evaluation reuse every
// serious adaptive implementation (including [9]'s CUDA code) performs.
type adaptiveFrame struct {
	a, b, tol  float64
	fa, fm, fb float64
	coarse     float64
	depth      int
}

// adaptivePhase is RP-ADAPTIVEQUADRATURE: one launch with one thread per
// work entry, each thread running the full recursive adaptive Simpson
// algorithm for its interval (depth-first via an explicit stack, as the
// CUDA implementation of [9] does). Every refinement step is a trace unit,
// so threads whose intervals need different refinement depths diverge —
// the control-flow irregularity of adaptive quadrature the paper's Section
// III.C.2 describes.
//
// The sortByCost flag enables [10]'s workload-balance heuristic of
// grouping intervals of similar estimated cost into the same warp.
// Integrals and errors accumulate into points, accepted breakpoints into
// the store's per-point partitions, in entry order; the lanes take their
// DFS stacks and bound lists from their SM's scratch.
func adaptivePhase(dev *gpusim.Device, st *stepStore, p *retard.Problem, points []Point, entries []workEntry, threadsPerBlock int, sortByCost bool, name string) (gpusim.Metrics, int) {
	if len(entries) == 0 {
		return gpusim.Metrics{}, 0
	}
	if sortByCost {
		sort.Slice(entries, func(i, j int) bool {
			wi := entries[i].b - entries[i].a
			wj := entries[j].b - entries[j].a
			if wi != wj {
				return wi > wj
			}
			return entries[i].pt < entries[j].pt
		})
	}
	st.results = hostpar.Resize(st.results, len(entries))
	results := st.results
	st.clearBounds()
	maxDepth := p.MaxDepth
	blocks := (len(entries) + threadsPerBlock - 1) / threadsPerBlock
	m := dev.Run(gpusim.Launch{
		Name:            name,
		Blocks:          blocks,
		ThreadsPerBlock: threadsPerBlock,
		Kernel: func(lane *gpusim.Lane, block, thread int) {
			idx := block*threadsPerBlock + thread
			if idx >= len(entries) {
				return
			}
			e := entries[idx]
			smID := block % len(st.sms)
			sm := &st.sms[smID]
			lane.Begin(kindInit)
			for f := 0; f < 4; f++ {
				lane.Load(workAddr(idx, f))
			}
			lane.Load(pointAddr(e.pt, 0))
			lane.Load(pointAddr(e.pt, 1))
			lane.Flops(6)
			f := st.pool.bind(points[e.pt].X, points[e.pt].Y, lane, block)
			res := &results[idx]
			*res = laneResult{smRange: smRange{sm: int32(smID), lo: int32(len(sm.bounds))}}
			m0 := 0.5 * (e.a + e.b)
			fa, fm, fb := f(e.a), f(m0), f(e.b)
			lane.Flops(4)
			stack := append(sm.stack[:0], adaptiveFrame{
				a: e.a, b: e.b, tol: e.tol,
				fa: fa, fm: fm, fb: fb,
				coarse: (e.b - e.a) / 6 * (fa + 4*fm + fb),
			})
			for len(stack) > 0 {
				fr := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				lane.Begin(kindRefine)
				mid := 0.5 * (fr.a + fr.b)
				lm, rm := 0.5*(fr.a+mid), 0.5*(mid+fr.b)
				flm, frm := f(lm), f(rm)
				h := fr.b - fr.a
				left := h / 12 * (fr.fa + 4*flm + fr.fm)
				right := h / 12 * (fr.fm + 4*frm + fr.fb)
				errEst := math.Abs(left+right-fr.coarse) / 15
				lane.Flops(16)
				if errEst <= fr.tol || fr.depth >= maxDepth {
					res.i += left + right + (left+right-fr.coarse)/15
					res.err += errEst
					sm.bounds = append(sm.bounds, fr.a, fr.b)
					continue
				}
				stack = append(stack,
					adaptiveFrame{a: mid, b: fr.b, tol: fr.tol / 2, fa: fr.fm, fm: frm, fb: fr.fb, coarse: right, depth: fr.depth + 1},
					adaptiveFrame{a: fr.a, b: mid, tol: fr.tol / 2, fa: fr.fa, fm: flm, fb: fr.fm, coarse: left, depth: fr.depth + 1})
			}
			sm.stack = stack
			res.hi = int32(len(sm.bounds))
			lane.Begin(kindFinish)
			for f := 0; f < 3; f++ {
				lane.Store(workAddr(idx, f))
			}
			lane.Flops(2)
		},
	})
	for i, e := range entries {
		st.fold(points, e, &results[i])
	}
	return m, 1
}
