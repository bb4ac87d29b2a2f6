package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/retard"
	"beamdyn/internal/rng"
)

// Config configures a Fleet.
type Config struct {
	// Manager is the device registry the scheduler runs against.
	Manager Manager
	// MakeKernel builds the per-device kernel bound to device id's
	// handle; it is invoked once per registered device.
	MakeKernel func(id int, dev *gpusim.Device) kernels.Algorithm
	// Bands fixes the total row-band count of the over-decomposition.
	// 0 derives it as BandsPerDevice * NumDevices. Holding Bands constant
	// across device counts makes the per-band numerics identical, which
	// is what the bitwise fault-tolerance tests rely on.
	Bands int
	// BandsPerDevice is the over-decomposition factor (default 4): more
	// bands per device means finer-grained stealing and retry at the cost
	// of more kernel launches.
	BandsPerDevice int
	// Seed drives every stochastic scheduler choice (steal victim, retry
	// placement), per the repository's explicit-seed convention.
	Seed uint64
}

// Stats summarises the scheduler's behaviour during one Step.
type Stats struct {
	// Bands is the number of bands dispatched (the over-decomposition).
	Bands int
	// Stolen counts bands executed by a device other than the one the
	// cost-predicting placement chose.
	Stolen int
	// Retried counts bands re-placed after their device failed or became
	// unavailable mid-step.
	Retried int
	// Busy is the per-device simulated busy time (band kernel time scaled
	// by the device's slowdown factor), including doomed attempts.
	Busy []float64
}

// Utilization returns device d's busy time as a fraction of the busiest
// device's (0 when the step did no work).
func (s Stats) Utilization(d int) float64 {
	var max float64
	for _, b := range s.Busy {
		if b > max {
			max = b
		}
	}
	if max == 0 {
		return 0
	}
	return s.Busy[d] / max
}

// Fleet runs a compute-potentials kernel across a managed device fleet
// with dynamic, cost-predicted band scheduling. It implements
// kernels.Algorithm, so it drops into core.Simulation, the benches and
// the experiments harness wherever a single-device kernel or a static
// kernels.MultiGPU would.
type Fleet struct {
	cfg   Config
	mgr   Manager
	algos []kernels.Algorithm
	obs   *obs.Observer

	// rowCost is the measured per-row simulated cost of the previous
	// step, the placement fallback when no trained forecaster is
	// available.
	rowCost []float64
	// seen counts manager transitions already mirrored into the registry.
	seen int

	mu   sync.Mutex
	last Stats
}

// New builds a Fleet over cfg.Manager's devices.
func New(cfg Config) *Fleet {
	if cfg.Manager == nil {
		panic("fleet: Config.Manager is nil")
	}
	if cfg.MakeKernel == nil {
		panic("fleet: Config.MakeKernel is nil")
	}
	n := cfg.Manager.NumDevices()
	f := &Fleet{cfg: cfg, mgr: cfg.Manager}
	for id := 0; id < n; id++ {
		f.algos = append(f.algos, cfg.MakeKernel(id, cfg.Manager.Device(id)))
	}
	return f
}

// Name implements kernels.Algorithm.
func (f *Fleet) Name() string {
	return fmt.Sprintf("Fleet[%s x%d]", f.algos[0].Name(), len(f.algos))
}

// Reset implements kernels.Algorithm.
func (f *Fleet) Reset() {
	for _, a := range f.algos {
		a.Reset()
	}
	f.rowCost = nil
}

// SetObserver implements kernels.Observable, forwarding the telemetry
// layer to every per-device kernel.
func (f *Fleet) SetObserver(o *obs.Observer) {
	f.obs = o
	for _, a := range f.algos {
		if ob, ok := a.(kernels.Observable); ok {
			ob.SetObserver(o)
		}
	}
}

// SetHostWorkers implements kernels.HostParallel, forwarding the host
// worker budget to every per-device kernel that supports it.
func (f *Fleet) SetHostWorkers(n int) {
	for _, a := range f.algos {
		if hp, ok := a.(kernels.HostParallel); ok {
			hp.SetHostWorkers(n)
		}
	}
}

// LastStats returns the scheduler statistics of the most recent Step.
func (f *Fleet) LastStats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.last
	s.Busy = append([]float64(nil), f.last.Busy...)
	return s
}

// bandTask is one row-band of the over-decomposition.
type bandTask struct {
	index  int
	lo, hi int // target rows [lo, hi)
	cost   float64
	band   *grid.Grid
	res    *kernels.StepResult
}

// Step implements kernels.Algorithm: decompose, place by predicted cost,
// dispatch through per-device workers with stealing and failure retry,
// reassemble.
func (f *Fleet) Step(p *retard.Problem, target *grid.Grid, comp int) *kernels.StepResult {
	n := f.mgr.NumDevices()
	f.mgr.BeginStep(target.Step)
	sp := f.obs.Span("fleet/step", target.Step)

	tasks := f.decompose(target)
	for _, t := range tasks {
		t.band = bandGrid(target, t.lo, t.hi)
	}
	f.applyCosts(p, target, tasks)

	var avail []int
	for d := 0; d < n; d++ {
		if f.mgr.State(d).Schedulable() {
			avail = append(avail, d)
		}
	}
	if len(avail) == 0 {
		panic(fmt.Sprintf("fleet: no schedulable devices at step %d", target.Step))
	}

	// Cost-predicted placement: longest-processing-time greedy — most
	// expensive band first onto the device whose predicted completion
	// (current load plus the band's cost scaled by the device's slowdown)
	// is earliest. Deterministic: ties break on device order.
	order := make([]*bandTask, len(tasks))
	copy(order, tasks)
	sort.SliceStable(order, func(i, j int) bool { return order[i].cost > order[j].cost })
	load := make([]float64, n)
	queues := make([][]*bandTask, n)
	for _, t := range order {
		best, bestDone := -1, 0.0
		for _, d := range avail {
			done := load[d] + t.cost*f.mgr.Slowdown(d)
			if best < 0 || done < bestDone {
				best, bestDone = d, done
			}
		}
		load[best] = bestDone
		queues[best] = append(queues[best], t)
	}

	r := &fleetRun{
		step:    target.Step,
		queues:  queues,
		pending: len(tasks),
		alive:   make([]bool, n),
		took:    make([]bool, n),
		scope:   sp.Scope(),
		rng:     rng.New(f.cfg.Seed ^ (uint64(target.Step)+1)*0x9e3779b97f4a7c15),
	}
	r.cond = sync.NewCond(&r.mu)
	busy := make([]float64, n)
	for _, d := range avail {
		r.alive[d] = true
	}
	var wg sync.WaitGroup
	for _, d := range avail {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			f.worker(r, d, p, target, comp, busy)
		}(d)
	}
	wg.Wait()

	agg := f.reassemble(target, comp, tasks, busy)
	f.measureCosts(target, tasks)

	f.mu.Lock()
	f.last = Stats{Bands: len(tasks), Stolen: r.stolen, Retried: r.retried, Busy: busy}
	f.mu.Unlock()
	f.record(target.Step, len(tasks), r.stolen, r.retried, busy)
	sp.End(obs.I("bands", len(tasks)), obs.I("stolen", r.stolen),
		obs.I("retried", r.retried), obs.F("sim_sec", agg.Metrics.Time))
	return agg
}

// decompose splits the target's rows into the configured number of
// contiguous bands, each at least two rows tall (the grid minimum), sizes
// differing by at most one row.
func (f *Fleet) decompose(target *grid.Grid) []*bandTask {
	nb := f.cfg.Bands
	if nb <= 0 {
		per := f.cfg.BandsPerDevice
		if per <= 0 {
			per = 4
		}
		nb = per * f.mgr.NumDevices()
	}
	bounds := kernels.BandSplit(target.NY, nb)
	tasks := make([]*bandTask, 0, len(bounds))
	for i, b := range bounds {
		tasks = append(tasks, &bandTask{index: i, lo: b[0], hi: b[1]})
	}
	return tasks
}

// applyCosts fills each band's predicted cost: a trained forecaster's
// per-row access-pattern totals when a per-device kernel offers one, the
// previous step's measured per-row cost otherwise, uniform row counts as
// the bootstrap.
func (f *Fleet) applyCosts(p *retard.Problem, target *grid.Grid, tasks []*bandTask) {
	var rows []float64
	source := "uniform"
	for _, a := range f.algos {
		if cf, ok := a.(kernels.CostForecaster); ok {
			if rc := cf.ForecastRowCosts(p, target); len(rc) == target.NY {
				rows, source = rc, "forecast"
				break
			}
		}
	}
	if rows == nil && len(f.rowCost) == target.NY {
		rows, source = f.rowCost, "measured"
	}
	for _, t := range tasks {
		if rows == nil {
			t.cost = float64(t.hi - t.lo)
			continue
		}
		for iy := t.lo; iy < t.hi; iy++ {
			t.cost += rows[iy]
		}
	}
	if f.obs != nil && f.obs.Reg != nil {
		f.obs.Reg.Counter("fleet_cost_source_total", obs.Label{Key: "source", Value: source}).Inc()
	}
}

// measureCosts records this step's measured per-row simulated cost as the
// next step's placement fallback.
func (f *Fleet) measureCosts(target *grid.Grid, tasks []*bandTask) {
	if cap(f.rowCost) < target.NY {
		f.rowCost = make([]float64, target.NY)
	}
	f.rowCost = f.rowCost[:target.NY]
	for _, t := range tasks {
		perRow := t.res.Metrics.Time / float64(t.hi-t.lo)
		for iy := t.lo; iy < t.hi; iy++ {
			f.rowCost[iy] = perRow
		}
	}
}

// fleetRun is the shared state of one Step's worker pool.
type fleetRun struct {
	mu      sync.Mutex
	cond    *sync.Cond
	step    int
	queues  [][]*bandTask
	pending int
	alive   []bool
	took    []bool        // the device has taken a band from its own queue this step
	scope   *obs.Observer // fleet/step span scope; band spans parent here
	rng     *rng.Source
	stolen  int
	retried int
}

// worker is the per-device dispatch loop: drain the own queue, steal when
// idle, exit on device death (after re-placing the doomed band) or when
// every band has completed.
func (f *Fleet) worker(r *fleetRun, d int, p *retard.Problem, target *grid.Grid, comp int, busy []float64) {
	for {
		t := r.next(d)
		if t == nil {
			return
		}
		// Each band executes under its own child span of fleet/step; the
		// per-device kernel is re-scoped so its sub-phase spans parent
		// under the band. Worker d is the only goroutine touching
		// f.algos[d], so the re-scope is race-free.
		bsp := r.scope.Span("fleet/band", r.step)
		if ob, ok := f.algos[d].(kernels.Observable); ok {
			ob.SetObserver(bsp.Scope())
		}
		var res *kernels.StepResult
		err := f.mgr.ExecBand(d, func(dev *gpusim.Device) {
			res = f.algos[d].Step(p, t.band, comp)
		})
		if res != nil {
			// Even a doomed attempt kept the device busy until it died.
			busy[d] += res.Metrics.Time * f.mgr.Slowdown(d)
		}
		if err != nil {
			// The band's results (if any) are void: rebuild its grid so
			// the retry starts clean, then hand it to a survivor.
			t.band = bandGrid(target, t.lo, t.hi)
			bsp.End(obs.I("device", d), obs.I("band", t.index),
				obs.I("rows", t.hi-t.lo), obs.S("outcome", "failed"))
			r.fail(d, t)
			return
		}
		t.res = res
		bsp.End(obs.I("device", d), obs.I("band", t.index),
			obs.I("rows", t.hi-t.lo), obs.F("sim_sec", res.Metrics.Time))
		r.done()
	}
}

// next returns the worker's next band: its own queue head, else a steal
// from a seeded-random victim with stealable work, else it waits for
// in-flight bands to finish or fail. A nil return means the step is over
// for this worker.
//
// A live device's queue head is not stealable until that device has
// taken a band this step, so every live device with placed work runs at
// least one band per step, whatever the goroutine interleaving: a
// scripted after=N failure then fires on every run instead of only when
// the owner's worker wins the race for its own queue. Dead devices'
// abandoned queues are stealable whole.
func (r *fleetRun) next(d int) *bandTask {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.pending == 0 || !r.alive[d] {
			return nil
		}
		if q := r.queues[d]; len(q) > 0 {
			r.queues[d] = q[1:]
			r.took[d] = true
			return q[0]
		}
		var victims []int
		for v, q := range r.queues {
			if v != d && (len(q) > 1 || len(q) == 1 && (r.took[v] || !r.alive[v])) {
				victims = append(victims, v)
			}
		}
		if len(victims) > 0 {
			// Steal the cheapest queued band from the victim's tail,
			// leaving its expensive head where the placement wanted it.
			v := victims[r.rng.Intn(len(victims))]
			q := r.queues[v]
			t := q[len(q)-1]
			r.queues[v] = q[:len(q)-1]
			r.stolen++
			return t
		}
		r.cond.Wait()
	}
}

// done marks one band complete.
func (r *fleetRun) done() {
	r.mu.Lock()
	r.pending--
	r.cond.Broadcast()
	r.mu.Unlock()
}

// fail marks device d dead and re-places its in-flight band on a
// surviving worker chosen from the seeded stream. The dead device's
// remaining queue stays where it is — survivors steal from it.
func (r *fleetRun) fail(d int, t *bandTask) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.alive[d] = false
	r.retried++
	var survivors []int
	for v, ok := range r.alive {
		if ok {
			survivors = append(survivors, v)
		}
	}
	if len(survivors) == 0 {
		panic(fmt.Sprintf("fleet: band %d lost at step %d: no surviving devices", t.index, r.step))
	}
	v := survivors[r.rng.Intn(len(survivors))]
	r.queues[v] = append(r.queues[v], t)
	r.cond.Broadcast()
}

// reassemble copies every band's potentials into the target and
// aggregates the per-band step results in deterministic band order.
func (f *Fleet) reassemble(target *grid.Grid, comp int, tasks []*bandTask, busy []float64) *kernels.StepResult {
	agg := &kernels.StepResult{}
	agg.Points = make([]kernels.Point, target.NX*target.NY)
	for _, t := range tasks {
		band, res := t.band, t.res
		for iy := 0; iy < band.NY; iy++ {
			for ix := 0; ix < band.NX; ix++ {
				target.Set(ix, t.lo+iy, comp, band.At(ix, iy, comp))
			}
		}
		copy(agg.Points[t.lo*target.NX:t.hi*target.NX], res.Points)
		agg.Metrics.Add(res.Metrics)
		agg.Fixed.Add(res.Fixed)
		agg.Adaptive.Add(res.Adaptive)
		agg.Host.Clustering += res.Host.Clustering
		agg.Host.Predict += res.Host.Predict
		agg.Host.Train += res.Host.Train
		agg.FallbackEntries += res.FallbackEntries
		agg.Launches += res.Launches
	}
	// The step finishes when the busiest device does.
	var maxBusy float64
	for _, b := range busy {
		if b > maxBusy {
			maxBusy = b
		}
	}
	agg.Metrics.Time = maxBusy
	return agg
}

// record mirrors the step's fleet behaviour into the metrics registry
// and, when a trace sink is attached, emits one "fleet/device" event per
// device so offline trace analysis (obstool fleet) can reconstruct
// per-device utilization and state without the registry snapshot.
func (f *Fleet) record(step, bands, stolen, retried int, busy []float64) {
	if f.obs == nil {
		return
	}
	var maxBusy float64
	for _, b := range busy {
		if b > maxBusy {
			maxBusy = b
		}
	}
	if reg := f.obs.Reg; reg != nil {
		reg.Counter("fleet_steps_total").Inc()
		reg.Counter("fleet_bands_dispatched_total").Add(uint64(bands))
		reg.Counter("fleet_bands_stolen_total").Add(uint64(stolen))
		reg.Counter("fleet_bands_retried_total").Add(uint64(retried))
		for d := range busy {
			lbl := obs.Label{Key: "device", Value: strconv.Itoa(d)}
			reg.Gauge("fleet_device_busy_sim_seconds", lbl).Add(busy[d])
			if maxBusy > 0 {
				reg.Gauge("fleet_device_utilization", lbl).Set(busy[d] / maxBusy)
			}
			reg.Gauge("fleet_device_state", lbl).Set(float64(f.mgr.State(d)))
		}
		trans := f.mgr.Transitions()
		for _, tr := range trans[f.seen:] {
			reg.Counter("fleet_device_state_transitions_total",
				obs.Label{Key: "device", Value: strconv.Itoa(tr.Device)},
				obs.Label{Key: "to", Value: tr.To.String()}).Inc()
		}
		f.seen = len(trans)
	}
	if f.obs.TraceEnabled() {
		for d := range busy {
			util := 0.0
			if maxBusy > 0 {
				util = busy[d] / maxBusy
			}
			f.obs.Event("fleet/device", step,
				obs.I("device", d),
				obs.S("state", f.mgr.State(d).String()),
				obs.F("slowdown", f.mgr.Slowdown(d)),
				obs.F("busy_sim_sec", busy[d]),
				obs.F("utilization", util))
		}
	}
}

// bandGrid builds the [lo, hi) row-band view of target as a standalone
// grid whose geometry matches the band's rows.
func bandGrid(target *grid.Grid, lo, hi int) *grid.Grid {
	b := grid.New(target.NX, hi-lo, target.Comp,
		target.X0, target.Y0+float64(lo)*target.DY, target.DX, target.DY)
	b.Step = target.Step
	return b
}
