package kernels

import (
	"sort"

	"beamdyn/internal/access"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/hostpar"
	"beamdyn/internal/quadrature"
	"beamdyn/internal/retard"
)

// integrandPool hands each simulated SM a persistent panel evaluator.
// gpusim runs one goroutine per SM with blocks assigned round-robin
// (SM = block % NumSMs) and lane bodies within an SM run sequentially, so
// indexing the pool by block modulo NumSMs is race-free. A kernel keeps
// one pool for its lifetime and resets it to each step's Problem:
// evaluators are built on first use, and steady-state Resets do not
// allocate. Reuse cannot change a result, because an evaluator's memos
// hold the exact floats a fresh evaluator computes and a lane-bound
// evaluator charges every load and flop.
type integrandPool struct {
	p     *retard.Problem
	evals []*retard.Evaluator
}

// reset points the pool at p, sized to numSMs.
func (ip *integrandPool) reset(p *retard.Problem, numSMs int) {
	ip.p = p
	if len(ip.evals) != numSMs {
		ip.evals = make([]*retard.Evaluator, numSMs)
	}
	for _, e := range ip.evals {
		if e != nil {
			e.Reset(p)
		}
	}
}

// bind returns the outer radial integrand for the point (x, y), evaluated
// on the block's SM-local evaluator, recording loads and flops on lane.
func (ip *integrandPool) bind(x, y float64, lane *gpusim.Lane, block int) quadrature.Func {
	sm := block % len(ip.evals)
	e := ip.evals[sm]
	if e == nil {
		e = retard.NewEvaluator(ip.p)
		ip.evals[sm] = e
	}
	e.Bind(x, y, lane)
	return e.Func()
}

// smScratch is one simulated SM's lane-body scratch, indexed like
// integrandPool and reused by every lane the SM runs, across launches and
// steps. The lists that must outlive a lane — failed panels, accepted
// bounds — collect the whole launch's entries and are addressed by
// smRange until the host loop after the launch has read them.
type smScratch struct {
	kept   []float64       // fixed phase: the lane's accepted breakpoints
	part   []float64       // Two-Phase's per-point coarse partition
	fails  []workEntry     // fixed phase: the launch's failed panels
	stack  []adaptiveFrame // adaptive phase: the lane's DFS stack
	bounds []float64       // adaptive and refine: the launch's accepted bounds
}

// smRange locates one lane's entries in an SM's scratch list.
type smRange struct {
	sm, lo, hi int32
}

// laneResult is the output slot of one work entry in the adaptive and
// refine launches: the accepted integral and error, and the range of the
// entry's accepted panel bounds in its SM's bounds list (empty when a
// refine interval failed).
type laneResult struct {
	i, err float64
	smRange
}

// blockMap caches a launch's point-to-block map across steps; it is
// rebuilt only when its shape key changes.
type blockMap struct {
	key    [4]int
	blocks [][]int
}

func (bm *blockMap) get(key [4]int, build func() [][]int) [][]int {
	if bm.blocks == nil || bm.key != key {
		bm.key, bm.blocks = key, build()
	}
	return bm.blocks
}

// stepStore is the storage a kernel reuses across launches and steps, so
// that a warm Step allocates a fixed handful of objects instead of several
// per point, per lane and per interval. What the StepResult hands out —
// Points and each point's Partition and Pattern — stays fresh every step
// (finish copies it into step-sized slabs), because callers keep it: a
// fleet device steps several bands per fleet step, and Predictive-RP reads
// the previous step's partitions. The kernels' phases run one after
// another, so one store serves them all.
type stepStore struct {
	pool integrandPool
	sms  []smScratch
	// parts[i] is point i's partition as merged so far this step; each
	// merge (fold) writes into spare[i] and swaps the two.
	parts, spare [][]float64
	// failed[i] locates point i's failed fixed-phase panels.
	failed []smRange
	// entries and next are the work lists of consecutive refine rounds.
	entries, next []workEntry
	results       []laneResult
	coarse        access.Pattern
	blocks        blockMap
}

// begin readies the store for a step of n points of problem p on dev.
func (st *stepStore) begin(dev *gpusim.Device, p *retard.Problem, n int) {
	numSMs := dev.Config().NumSMs
	st.pool.reset(p, numSMs)
	st.sms = hostpar.Resize(st.sms, numSMs)
	st.parts = hostpar.Resize(st.parts, n)
	st.spare = hostpar.Resize(st.spare, n)
	for i := range st.parts {
		st.parts[i] = st.parts[i][:0]
	}
}

// coarsePattern returns the uniform seed pattern, the given number of
// panels in each of numSub subregions, in reused storage.
func (st *stepStore) coarsePattern(numSub, panels int) access.Pattern {
	st.coarse = hostpar.Resize(st.coarse, numSub)
	for j := range st.coarse {
		st.coarse[j] = float64(panels)
	}
	return st.coarse
}

// clearBounds empties every SM's accepted-bounds list before a launch.
func (st *stepStore) clearBounds() {
	for k := range st.sms {
		st.sms[k].bounds = st.sms[k].bounds[:0]
	}
}

// fold adds work entry e's accepted integral and error to its point and
// merges the entry's accepted panel bounds, sorted, into the point's
// partition with MERGE-LISTS, writing into the point's spare buffer and
// swapping it in.
func (st *stepStore) fold(points []Point, e workEntry, r *laneResult) {
	pt := &points[e.pt]
	pt.I += r.i
	pt.Err += r.err
	b := st.sms[r.sm].bounds[r.lo:r.hi]
	sort.Float64s(b)
	i := e.pt
	st.spare[i] = quadrature.AppendMergeLists(st.spare[i][:0], st.parts[i], b, 1e-18)
	st.parts[i], st.spare[i] = st.spare[i], st.parts[i]
}

// finish hands every point its final partition and its observed access
// pattern (Algorithm 1 line 20: the pattern observed during the
// computation, adaptive additions included) in two fresh step-sized slabs.
// The partitions are copied out of the reused per-point buffers in one
// serial pass; the patterns, pure reads of the problem, are appended in
// place into their slots of the pattern slab across the worker pool.
func (st *stepStore) finish(p *retard.Problem, points []Point, workers int) {
	total := 0
	for _, part := range st.parts[:len(points)] {
		total += len(part)
	}
	slab := make([]float64, total)
	off := 0
	for i := range points {
		n := copy(slab[off:], st.parts[i])
		points[i].Partition = slab[off : off+n : off+n]
		off += n
	}
	numSub := p.NumSub()
	pats := make([]float64, len(points)*numSub)
	hostpar.For(len(points), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			pt := &points[i]
			pt.Pattern = p.AppendObservedPattern(pats[i*numSub:i*numSub:(i+1)*numSub], pt.X, pt.Y, pt.Partition)
		}
	})
}
