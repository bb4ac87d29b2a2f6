package kernels

import (
	"math"
	"slices"
	"time"

	"beamdyn/internal/access"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/hostpar"
	"beamdyn/internal/ml/kmeans"
	"beamdyn/internal/ml/knn"
	"beamdyn/internal/ml/linreg"
	"beamdyn/internal/obs"
	"beamdyn/internal/quadrature"
	"beamdyn/internal/retard"
	"beamdyn/internal/rng"
)

// Predictor is the online prediction model of Section III.B: fitted on the
// access patterns observed during one time step, queried for one-step-ahead
// forecasts during the next.
type Predictor interface {
	// Trained reports whether the model can predict.
	Trained() bool
	// Fit replaces the training set with (inputs, patterns). Fit must not
	// retain the row slices: the kernel reuses their backing arrays across
	// steps.
	Fit(x, y [][]float64)
	// Predict writes the forecast pattern for input x into out. Predict
	// must be safe for concurrent calls — the PREDICT phase queries the
	// model from every host worker at once (both bundled predictors are
	// pure reads after Fit).
	Predict(x, out []float64)
	// OutDim returns the trained pattern length (0 before Fit).
	OutDim() int
}

// KNNPredictor adapts the kNN regressor to the Predictor interface; it is
// the paper's model of choice. Predictions use inverse-distance weighting,
// so a query at (or very near) a training grid point reproduces that
// point's observed pattern while queries between points interpolate.
type KNNPredictor struct{ *knn.Regressor }

// NewKNNPredictor returns a kNN predictor over k neighbours.
func NewKNNPredictor(k int) KNNPredictor { return KNNPredictor{knn.New(k)} }

// Predict implements Predictor with inverse-distance weighting.
func (p KNNPredictor) Predict(x, out []float64) { p.PredictWeighted(x, out) }

// LinregPredictor adapts least-squares linear regression to the Predictor
// interface — the alternative model the paper reports as performing within
// noise of kNN.
type LinregPredictor struct{ m linreg.Model }

// NewLinregPredictor returns a linear-regression predictor.
func NewLinregPredictor() *LinregPredictor { return &LinregPredictor{} }

// Trained implements Predictor.
func (l *LinregPredictor) Trained() bool { return l.m.Trained() }

// Fit implements Predictor. Least-squares fitting cannot fail on the
// well-conditioned grid-point designs this system produces; a singular fit
// leaves the previous model in place, which only costs prediction quality.
func (l *LinregPredictor) Fit(x, y [][]float64) { _ = l.m.Fit(x, y) }

// Predict implements Predictor.
func (l *LinregPredictor) Predict(x, out []float64) { l.m.Predict(x, out) }

// OutDim implements Predictor.
func (l *LinregPredictor) OutDim() int { return l.m.OutDim() }

// PartitionMode selects the forecast-to-partition transform of Section
// III.C.2.
type PartitionMode int

const (
	// UniformPartition divides each subregion into the predicted number of
	// equal panels.
	UniformPartition PartitionMode = iota
	// AdaptivePartition refines the previous step's partition by the
	// predicted count ratios.
	AdaptivePartition
)

// ClusterMode selects how RP-CLUSTERING groups grid points.
type ClusterMode int

const (
	// ClusterByPattern groups grid points into spatially contiguous,
	// warp-aligned segments whose predicted access patterns are similar:
	// the row-major walk cuts a new segment at pattern jumps or at the
	// capacity N/m. It realises RP-CLUSTERING's objective (minimal
	// pattern distance to the group representative) under the constraint
	// that a warp's lanes stay adjacent in memory, which pure k-means
	// cannot guarantee. This is the default.
	ClusterByPattern ClusterMode = iota
	// ClusterKMeans is the unconstrained k-means of Algorithm 1 (kept for
	// the ablation benchmark; on mirror-symmetric pattern fields it groups
	// spatially distant points and loses coalescing).
	ClusterKMeans
	// ClusterSpatial tiles points spatially ignoring patterns, the
	// heuristic of [10] (ablation).
	ClusterSpatial
	// ClusterNone maps points to blocks row-major (ablation).
	ClusterNone
)

// Predictive implements this paper's Predictive-RP kernel (Algorithm 1).
type Predictive struct {
	Dev *gpusim.Device
	// Pred is the online prediction model g (default: 4-NN regression).
	Pred Predictor
	// Mode is the forecast-to-partition transform.
	Mode PartitionMode
	// Clustering selects the RP-CLUSTERING strategy.
	Clustering ClusterMode
	// MergeQuantile is the per-subregion quantile of member pattern counts
	// used for a block's merged partition: 1.0 covers every member
	// (element-wise max, most extra work), lower values let the adaptive
	// safety net catch the tail. 0 means 0.9.
	MergeQuantile float64
	// SegmentCap bounds the segmented-clustering block size in threads;
	// 0 means one warp (32), which keeps the merged partition tight where
	// patterns vary quickly along a row.
	SegmentCap int
	// HostWorkers bounds the worker count of the host-side learning
	// phases (PREDICT, RP-CLUSTERING, ONLINE-LEARNING); <= 0 means
	// runtime.GOMAXPROCS. Every host loop partitions its index range
	// statically and writes by index, so results are bitwise identical
	// for any value (see internal/hostpar).
	HostWorkers int

	prevParts [][]float64
	prevNX    int
	prevNY    int
	obs       *obs.Observer
	scratch   predScratch
	store     stepStore
}

// predScratch holds the kernel's step-lifetime buffers, all reused across
// steps (hostpar.Resize / arena Reset) so steady-state host phases are
// near-zero-alloc. Nothing in here is retained by StepResult.
type predScratch struct {
	workers  []predWorker
	patBuf   []float64        // flat backing of the forecast patterns
	patterns []access.Pattern // views into patBuf, one per point
	parts    [][]float64      // per-point partitions (AdaptivePartition mode)
	idx      []int            // identity indices; segments are sub-slices
	jumps    []float64
	mean     access.Pattern
	scaled   access.Pattern // hoisted warp-boundary comparison buffer
	groups   [][]int
	blocks   [][]int
	merged   [][]float64
	bases    []uintptr
	x, y     [][]float64 // training-matrix row views
	featBuf  []float64   // flat backing of the training features
}

// predWorker is the scratch one worker owns during the parallel phases.
// Workers process disjoint index ranges and the values written through
// this state depend only on the point index, never on the worker, which
// preserves the bitwise-determinism guarantee.
type predWorker struct {
	arena    hostpar.Arena[float64]
	feat     []float64 // 2-element feature vector
	buf      []float64 // raw model output
	part     []float64 // partition append scratch
	vals     []float64 // quantile scratch
	qpat     access.Pattern
	searcher *knn.Searcher
}

// setup sizes the per-worker scratch for a step: arenas rewind, buffers
// resize to the subregion count, and each worker gets a reusable query
// context over the kNN model (nil reg selects the generic Predict path).
func (sc *predScratch) setup(workers, numSub int, reg *knn.Regressor) {
	if len(sc.workers) < workers {
		sc.workers = append(sc.workers, make([]predWorker, workers-len(sc.workers))...)
	}
	for w := 0; w < workers; w++ {
		wk := &sc.workers[w]
		wk.arena.Reset()
		wk.feat = hostpar.Resize(wk.feat, 2)
		wk.buf = hostpar.Resize(wk.buf, numSub)
		if reg == nil {
			wk.searcher = nil
		} else if wk.searcher == nil || wk.searcher.For() != reg {
			wk.searcher = reg.NewSearcher()
		}
	}
}

// SetObserver implements Observable.
func (pr *Predictive) SetObserver(o *obs.Observer) { pr.obs = o }

// SetHostWorkers implements HostParallel.
func (pr *Predictive) SetHostWorkers(n int) { pr.HostWorkers = n }

// hostWorkers resolves the worker count used by this step's host phases.
func (pr *Predictive) hostWorkers() int { return hostpar.Workers(pr.HostWorkers) }

// The kernel's fixed settings. RP-CLUSTERING uses m = max(NX, NY)
// clusters, the paper's choice, and the balanced k-means assignment caps
// every cluster at N/m points (rounded up to whole warps).
const (
	// clusterSample caps the points k-means fits its centers on (a seeded
	// subsample; all points are still assigned). The paper runs
	// scikit-learn k-means on all points on a multicore host; the
	// subsample keeps host time proportionate on small machines without
	// changing the cluster structure of the smooth pattern field.
	clusterSample = 4096
	// spatialWeight scales the grid position (relative to the typical
	// pattern magnitude) added to the k-means features, keeping clusters
	// spatially compact so warps read adjacent stencils.
	spatialWeight = 0.5
	// blockThreads bounds the thread-block size.
	blockThreads = 256
	// bootstrapPanels is every subregion's panel count before the model
	// is trained.
	bootstrapPanels = 2
)

// NewPredictive returns the kernel configured as in the paper: 4-NN
// prediction, uniform partition transform, pattern clustering with
// m = max(NX, NY).
func NewPredictive(dev *gpusim.Device) *Predictive {
	return &Predictive{
		Dev:        dev,
		Pred:       NewKNNPredictor(4),
		Mode:       UniformPartition,
		Clustering: ClusterByPattern,
	}
}

// Name implements Algorithm.
func (pr *Predictive) Name() string { return "Predictive-RP" }

// Reset implements Algorithm, dropping the trained model and remembered
// partitions.
func (pr *Predictive) Reset() {
	if pr.Pred != nil && pr.Pred.Trained() {
		pr.Pred.Fit(nil, nil)
	}
	pr.prevParts, pr.prevNX, pr.prevNY = nil, 0, 0
}

// Step implements Algorithm: lines 1-25 of COMPUTE-POTENTIALS.
func (pr *Predictive) Step(p *retard.Problem, target *grid.Grid, comp int) *StepResult {
	if pr.Pred == nil {
		// A hand-constructed kernel gets the paper's default model rather
		// than a nil-pointer crash at the ONLINE-LEARNING refit.
		pr.Pred = NewKNNPredictor(4)
	}
	workers := pr.hostWorkers()
	if hp, ok := pr.Pred.(HostParallel); ok {
		hp.SetHostWorkers(workers)
	}
	points := buildPoints(p, target, workers)
	st := &pr.store
	st.begin(pr.Dev, p, len(points))
	res := &StepResult{}
	if pr.prevNX != target.NX || pr.prevNY != target.NY {
		pr.prevParts = nil
	}

	// Lines 1-5: forecast each point's access pattern with g and convert
	// it to a partition. Before the first training step the pattern falls
	// back to the coarse uniform seed (the bootstrap step that also
	// produces the first training set).
	sp := pr.obs.Span("predictive/predict", target.Step)
	t0 := time.Now()
	patterns, parts, trained := pr.predictPhase(p, target, points, workers)
	res.Host.Predict = time.Since(t0).Seconds()
	res.Forecast = trained
	sp.End(obs.I("points", len(points)), obs.Attr{Key: "trained", Value: trained},
		obs.HostWorkers(workers))

	// Line 6: RP-CLUSTERING — group points by predicted access pattern.
	sp = pr.obs.Span("predictive/cluster", target.Step)
	t0 = time.Now()
	blocks, merged, bases := pr.cluster(p, target, points, patterns, parts, workers)
	res.Host.Clustering = time.Since(t0).Seconds()
	sp.End(obs.I("blocks", len(blocks)), obs.HostWorkers(workers))

	// Lines 8-17: evaluate every point over its cluster's merged partition
	// with one-to-one thread mapping and uniform control flow.
	tpb := 0
	for _, b := range blocks {
		if len(b) > tpb {
			tpb = len(b)
		}
	}
	spec := fixedPhaseSpec{
		name:            "predictive/clustered",
		blocks:          blocks,
		threadsPerBlock: tpb,
		partFor: func(_ *smScratch, _, blk int) ([]float64, uintptr) {
			return merged[blk], bases[blk]
		},
	}
	sp = pr.obs.Span("predictive/verify", target.Step)
	m, entries := fixedPhase(pr.Dev, st, p, points, spec)
	res.Metrics.Add(m)
	res.Fixed = m
	res.Launches++
	res.FallbackEntries = len(entries)
	sp.End(obs.I("fallback_entries", len(entries)), obs.F("sim_sec", m.Time))

	// Lines 18-24: adaptive safety net for panels above tolerance.
	sp = pr.obs.Span("predictive/fallback", target.Step)
	rm, launches := adaptivePhase(pr.Dev, st, p, points, entries, blockThreads, false, "predictive/adaptive")
	res.Metrics.Add(rm)
	res.Adaptive = rm
	res.Launches += launches
	sp.End(obs.I("entries", len(entries)), obs.F("sim_sec", rm.Time))

	st.finish(p, points, workers)
	storeResults(points, target, comp, workers)

	// Line 25: ONLINE-LEARNING — refit g on the observed patterns.
	sp = pr.obs.Span("predictive/train", target.Step)
	t0 = time.Now()
	pr.trainPhase(points, target, workers)
	res.Host.Train = time.Since(t0).Seconds()
	sp.End(obs.HostWorkers(workers))

	// Predictor-quality sample: how far the forecast was from the patterns
	// actually observed, and how much work leaked to the safety net.
	if pr.obs.PredictorEnabled() {
		errs := forecastErrors(patterns, points)
		if trained {
			res.ForecastErr = errs
		}
		pr.obs.RecordPredictor(obs.StepSample{
			Step:            target.Step,
			Kernel:          pr.Name(),
			Trained:         trained,
			Points:          len(points),
			FallbackEntries: res.FallbackEntries,
			PredictSec:      res.Host.Predict,
			ClusterSec:      res.Host.Clustering,
			TrainSec:        res.Host.Train,
		}, errs)
	}

	pr.prevParts = hostpar.Resize(pr.prevParts, len(points))
	hostpar.For(len(points), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			pr.prevParts[i] = points[i].Partition
		}
	})
	pr.prevNX, pr.prevNY = target.NX, target.NY
	res.Points = points
	return res
}

// predictPhase runs lines 1-5 of Algorithm 1 on the worker pool: forecast
// each point's access pattern and, in AdaptivePartition mode, convert it
// to a per-point partition (UniformPartition mode derives partitions per
// cluster instead, so the per-point transform would be dead work).
// Patterns are views into one flat reused backing; kNN queries go through
// per-worker Searchers so the phase stays allocation-free once warm.
func (pr *Predictive) predictPhase(p *retard.Problem, target *grid.Grid, points []Point, workers int) (patterns []access.Pattern, parts [][]float64, trained bool) {
	sc := &pr.scratch
	numSub := p.NumSub()
	trained = pr.Pred.Trained() && pr.Pred.OutDim() == numSub
	var reg *knn.Regressor
	if kp, ok := pr.Pred.(KNNPredictor); ok && trained {
		reg = kp.Regressor
	}
	sc.setup(workers, numSub, reg)
	n := len(points)
	sc.patBuf = hostpar.Resize(sc.patBuf, n*numSub)
	patterns = hostpar.Resize(sc.patterns, n)
	sc.patterns = patterns
	adaptive := pr.Mode == AdaptivePartition
	if adaptive {
		parts = hostpar.Resize(sc.parts, n)
		sc.parts = parts
	}
	// Model features are bunch-frame coordinates: the moment grid co-moves
	// with the bunch, so positions relative to the grid centre are the
	// stationary coordinates in which access patterns persist; lab-frame
	// positions would shift by c*dt every step and turn every forecast
	// into an extrapolation.
	cx, cy := gridCenter(target)
	subW := p.SubWidth()
	hostpar.For(n, workers, func(w, lo, hi int) {
		wk := &sc.workers[w]
		for i := lo; i < hi; i++ {
			pt := &points[i]
			pat := access.Pattern(sc.patBuf[i*numSub : (i+1)*numSub : (i+1)*numSub])
			if trained {
				wk.feat[0], wk.feat[1] = pt.X-cx, pt.Y-cy
				if wk.searcher != nil {
					wk.searcher.PredictWeighted(wk.feat, wk.buf)
				} else {
					pr.Pred.Predict(wk.feat, wk.buf)
				}
				for j := range pat {
					pat[j] = math.Max(wk.buf[j], 0)
				}
			} else {
				for j := range pat {
					pat[j] = bootstrapPanels
				}
			}
			patterns[i] = pat
			if adaptive {
				if pr.prevParts != nil && len(pr.prevParts[i]) >= 2 {
					parts[i] = pat.AdaptivePartition(pr.prevParts[i], subW, pt.R)
				} else {
					parts[i] = pat.UniformPartition(subW, pt.R)
				}
			}
		}
	})
	return patterns, parts, trained
}

// trainPhase is line 25, ONLINE-LEARNING: refit g on the patterns observed
// this step. The training matrix is two reused view slices over one flat
// feature backing — safe because Predictor.Fit must not retain the rows.
func (pr *Predictive) trainPhase(points []Point, target *grid.Grid, workers int) {
	sc := &pr.scratch
	n := len(points)
	sc.featBuf = hostpar.Resize(sc.featBuf, 2*n)
	sc.x = hostpar.Resize(sc.x, n)
	sc.y = hostpar.Resize(sc.y, n)
	cx, cy := gridCenter(target)
	hostpar.For(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			f := sc.featBuf[2*i : 2*i+2 : 2*i+2]
			f[0], f[1] = points[i].X-cx, points[i].Y-cy
			sc.x[i] = f
			sc.y[i] = points[i].Pattern
		}
	})
	pr.Pred.Fit(sc.x, sc.y)
}

// cluster implements RP-CLUSTERING plus the per-cluster MERGE-LISTS step
// (lines 6 and 9-12): it returns the thread blocks (point index lists),
// the merged partition each block walks, and the partition's simulated
// base address (shared by all threads of the block, so breakpoint loads
// broadcast). Grouping and block splitting are serial (cheap, and order-
// dependent); the per-block merged partitions build on the worker pool
// into per-worker arenas, then base addresses are assigned in one serial
// cursor pass so the address layout is independent of the worker count.
func (pr *Predictive) cluster(p *retard.Problem, target *grid.Grid, points []Point, patterns []access.Pattern, parts [][]float64, workers int) (blocks [][]int, merged [][]float64, bases []uintptr) {
	sc := &pr.scratch
	var groups [][]int
	switch pr.Clustering {
	case ClusterSpatial:
		groups = tileBlocks(target.NX, target.NY, 32, 8)
	case ClusterNone:
		groups = rowMajorBlocks(len(points), blockThreads)
	case ClusterKMeans:
		groups = pr.patternClusters(target, patterns)
	default:
		groups = pr.segmentClusters(target, patterns)
	}

	maxTPB := min(pr.Dev.Config().MaxThreadsPerBlock, blockThreads)
	// "Each cluster is assigned to one or more thread blocks."
	blocks = sc.blocks[:0]
	for _, g := range groups {
		for lo := 0; lo < len(g); lo += maxTPB {
			hi := lo + maxTPB
			if hi > len(g) {
				hi = len(g)
			}
			blocks = append(blocks, g[lo:hi])
		}
	}
	sc.blocks = blocks
	merged = hostpar.Resize(sc.merged, len(blocks))
	sc.merged = merged
	bases = hostpar.Resize(sc.bases, len(blocks))
	sc.bases = bases

	q := pr.MergeQuantile
	if q == 0 {
		q = 0.9
	}
	numSub := p.NumSub()
	subW := p.SubWidth()
	hostpar.For(len(blocks), workers, func(w, lo, hi int) {
		wk := &sc.workers[w]
		for b := lo; b < hi; b++ {
			blk := blocks[b]
			if pr.Mode == AdaptivePartition {
				// Aligned previous-step breakpoints merge exactly; each
				// merge writes into a fresh piece of the worker's arena.
				mp := parts[blk[0]]
				for _, i := range blk[1:] {
					mp = quadrature.AppendMergeLists(wk.arena.Take(len(mp) + len(parts[i]))[:0], mp, parts[i], 1e-18)
				}
				merged[b] = mp
				continue
			}
			// Merged partition: the per-subregion quantile of the member
			// patterns covers almost every member with a single breakpoint
			// list (MERGE-LISTS' uniform-control-flow objective without the
			// breakpoint-union blow-up of misaligned uniform partitions);
			// the straggler tail is caught by the adaptive safety net.
			wk.qpat, wk.vals = quantilePatternInto(wk.qpat, wk.vals, patterns, blk, numSub, q)
			maxR := 0.0
			for _, i := range blk {
				if points[i].R > maxR {
					maxR = points[i].R
				}
			}
			wk.part = wk.qpat.AppendUniformPartition(wk.part[:0], subW, maxR)
			merged[b] = wk.arena.Copy(wk.part)
		}
	})
	var cursor uintptr
	for b := range blocks {
		bases[b] = RegionParts + cursor
		cursor += uintptr(len(merged[b])) * 8
	}
	return blocks, merged, bases
}

// segmentClusters implements the default RP-CLUSTERING: a row-major walk
// over the grid accumulates points into the current cluster and cuts a new
// one when either the capacity N/m is reached or the point's predicted
// pattern jumps away from the cluster's running mean; cuts align to warp
// boundaries so no warp mixes clusters or runs partially filled. The
// result minimises within-cluster pattern distance (the k-means objective
// of Algorithm 1) subject to warps staying contiguous in memory. The walk
// is serial (each cut depends on the previous one) but allocation-free:
// groups are sub-slices of a reused identity index slice.
func (pr *Predictive) segmentClusters(target *grid.Grid, patterns []access.Pattern) [][]int {
	sc := &pr.scratch
	n := len(patterns)
	m := max(target.NX, target.NY)
	warp := pr.Dev.Config().WarpSize
	capacity := (n + m - 1) / m
	// Tight segments keep the merged partition close to every member's
	// own requirement: the element-wise pattern maximum over a couple of
	// warps of adjacent points overshoots far less than over a whole grid
	// row, at the cost of more (still warp-aligned) blocks.
	if maxCap := pr.SegmentCap; maxCap == 0 {
		if capacity > warp {
			capacity = warp
		}
	} else if capacity > maxCap {
		capacity = maxCap
	}
	if rem := capacity % warp; rem != 0 {
		capacity += warp - rem
	}
	sc.idx = hostpar.Resize(sc.idx, n)
	for i := range sc.idx {
		sc.idx[i] = i
	}
	// Jump threshold: a multiple of the median consecutive-point pattern
	// distance, so the cut criterion adapts to the pattern field's scale.
	jumps := sc.jumps[:0]
	for i := 1; i < n; i++ {
		jumps = append(jumps, access.Distance2(patterns[i], patterns[i-1]))
	}
	slices.Sort(jumps)
	sc.jumps = jumps
	var thresh float64
	if len(jumps) > 0 {
		thresh = 25 * (jumps[len(jumps)/2] + 1e-12) // 5x median distance, squared
	}

	groups := sc.groups[:0]
	mean := sc.mean[:0]
	start := 0
	flush := func(end int) {
		if end > start {
			groups = append(groups, sc.idx[start:end:end])
			start = end
			mean = mean[:0]
		}
	}
	for i := 0; i < n; i++ {
		if i-start == capacity {
			flush(i)
		}
		if i > start && (i-start)%warp == 0 {
			// Warp boundary: eligible cut point on a pattern jump.
			scaled := hostpar.Resize(sc.scaled, len(mean))
			sc.scaled = scaled
			inv := 1 / float64(i-start)
			for j := range mean {
				scaled[j] = mean[j] * inv
			}
			if access.Distance2(patterns[i], scaled) > thresh {
				flush(i)
			}
		}
		for len(mean) < len(patterns[i]) {
			mean = append(mean, 0)
		}
		for j, v := range patterns[i] {
			mean[j] += v
		}
	}
	flush(n)
	sc.groups = groups
	sc.mean = mean
	return groups
}

// quantilePatternInto writes, per subregion, the q-quantile of the member
// patterns' counts into dst, reusing dst and the vals scratch; it returns
// both so callers keep the (possibly grown) backing arrays.
func quantilePatternInto(dst access.Pattern, vals []float64, patterns []access.Pattern, members []int, numSub int, q float64) (access.Pattern, []float64) {
	dst = hostpar.Resize(dst, numSub)
	vals = hostpar.Resize(vals, len(members))
	for j := 0; j < numSub; j++ {
		for k, i := range members {
			if j < len(patterns[i]) {
				vals[k] = patterns[i][j]
			} else {
				vals[k] = 0
			}
		}
		slices.Sort(vals)
		idx := int(q * float64(len(vals)-1))
		dst[j] = vals[idx]
	}
	return dst, vals
}

// patternClusters runs k-means on the predicted patterns with
// m = max(NX, NY) clusters (the paper's choice), fitting centers on a
// subsample and assigning all points. A small spatially scaled position
// feature regularises the clusters to be spatially compact, so the warps
// formed from a cluster read adjacent integrand stencils.
func (pr *Predictive) patternClusters(target *grid.Grid, patterns []access.Pattern) [][]int {
	m := max(target.NX, target.NY)
	// Scale positions to the typical pattern magnitude so neither
	// dominates the k-means metric.
	var norm float64
	for i := range patterns {
		norm += math.Sqrt(access.Distance2(patterns[i], nil))
	}
	posScale := spatialWeight * norm / float64(len(patterns))
	data := make([][]float64, len(patterns))
	for i := range patterns {
		if posScale > 0 {
			ix := i % target.NX
			iy := i / target.NX
			row := make([]float64, len(patterns[i]), len(patterns[i])+2)
			copy(row, patterns[i])
			row = append(row,
				posScale*float64(ix)/float64(target.NX),
				posScale*float64(iy)/float64(target.NY))
			data[i] = row
		} else {
			data[i] = patterns[i]
		}
	}
	var centers [][]float64
	if len(data) > clusterSample && clusterSample > m {
		src := rng.New(0x5eed)
		perm := src.Perm(len(data))[:clusterSample]
		sub := make([][]float64, clusterSample)
		for i, j := range perm {
			sub[i] = data[j]
		}
		fit := kmeans.Cluster(sub, kmeans.Config{K: m, MaxIters: 12})
		centers = fit.Centers
	} else {
		fit := kmeans.Cluster(data, kmeans.Config{K: m, MaxIters: 12})
		centers = fit.Centers
	}
	// Balanced assignment: k-means "prefers clusters of approximately
	// similar size" (paper Section IV.A); bounding the capacity keeps
	// cluster sizes (and hence thread-block occupancy) comparable while
	// the slack lets most points stay in their nearest cluster. Capacity
	// rounds up to a whole number of warps.
	warp := pr.Dev.Config().WarpSize
	capacity := int(float64(len(data)) / float64(m))
	if capacity < 1 {
		capacity = 1
	}
	if rem := capacity % warp; rem != 0 {
		capacity += warp - rem
	}
	assign := assignBalanced(data, centers, capacity)
	groups := kmeans.Groups(assign, m)
	// Members stay in row-major order within each cluster, so consecutive
	// lanes of a warp are x-adjacent wherever the cluster spans whole row
	// segments; drop empty clusters.
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// assignBalanced assigns every row of data to the nearest center that
// still has capacity left.
func assignBalanced(data [][]float64, centers [][]float64, capacity int) []int {
	assign := make([]int, len(data))
	counts := make([]int, len(centers))
	for i, x := range data {
		best, bestD := -1, math.Inf(1)
		for c := range centers {
			if counts[c] >= capacity {
				continue
			}
			var d float64
			for j := range x {
				diff := x[j] - centers[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best < 0 {
			// All centers full (can only happen from rounding); spill to
			// the globally least loaded cluster.
			best = 0
			for c := range counts {
				if counts[c] < counts[best] {
					best = c
				}
			}
		}
		assign[i] = best
		counts[best]++
	}
	return assign
}
