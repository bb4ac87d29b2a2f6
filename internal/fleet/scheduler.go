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
)

// Config configures a Fleet.
type Config struct {
	// Devices are the simulated GPUs the fleet runs on, one kernel and
	// one band queue each.
	Devices []*gpusim.Device
	// MakeKernel builds the per-device kernel bound to device id's
	// handle; it is invoked once per device.
	MakeKernel func(id int, dev *gpusim.Device) kernels.Algorithm
	// Bands fixes the total row-band count. 0 means one band per device,
	// the static split of the multi-GPU predecessor [10]. Holding Bands
	// constant across device counts makes the per-band numerics identical,
	// which is what the bitwise tests rely on.
	Bands int
}

// Stats summarises the scheduler's behaviour during one Step.
type Stats struct {
	// Bands is the number of bands dispatched.
	Bands int
	// Busy is the per-device simulated busy time: the sum of its bands'
	// kernel time.
	Busy []float64
}

// Utilization returns device d's busy time as a fraction of the busiest
// device's (0 when the step did no work).
func (s Stats) Utilization(d int) float64 {
	max := maxOf(s.Busy)
	if max == 0 {
		return 0
	}
	return s.Busy[d] / max
}

// Fleet runs a compute-potentials kernel across several devices. It
// implements kernels.Algorithm, so it drops into core.Simulation, the
// benches and the experiments harness wherever a single-device kernel
// would.
type Fleet struct {
	cfg   Config
	algos []kernels.Algorithm
	obs   *obs.Observer

	mu   sync.Mutex
	last Stats
}

// New builds a Fleet over cfg.Devices.
func New(cfg Config) *Fleet {
	if len(cfg.Devices) == 0 {
		panic("fleet: Config.Devices is empty")
	}
	if cfg.MakeKernel == nil {
		panic("fleet: Config.MakeKernel is nil")
	}
	f := &Fleet{cfg: cfg}
	for id, dev := range cfg.Devices {
		f.algos = append(f.algos, cfg.MakeKernel(id, dev))
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
// worker budget to every per-device kernel that supports it. The budget
// is per kernel, not split across devices: device queues already run
// concurrently, so callers coordinating many devices on one host should
// pass a share.
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

// bandTask is one row-band of the decomposition.
type bandTask struct {
	index  int
	lo, hi int // target rows [lo, hi)
	band   *grid.Grid
	res    *kernels.StepResult
}

// Step implements kernels.Algorithm: split the target into row-bands,
// place them on the devices, run every device's queue on its own
// goroutine, and reassemble. Placement depends only on band rows, and
// each device runs its queue in order, so the output depends only on the
// inputs.
//
// A kernel panic does not kill the process from a device goroutine:
// every other queue finishes, and Step then re-panics on the caller's
// goroutine with the panic value of the lowest device index that
// panicked, so callers can recover it. The fleet's kernels keep whatever
// state the failed step left, so a recovered fleet should be discarded.
func (f *Fleet) Step(p *retard.Problem, target *grid.Grid, comp int) *kernels.StepResult {
	n := len(f.algos)
	sp := f.obs.Span("fleet/step", target.Step)
	scope := sp.Scope()

	nb := f.cfg.Bands
	if nb <= 0 {
		nb = n
	}
	bounds := BandSplit(target.NY, nb)
	tasks := make([]*bandTask, len(bounds))
	for i, b := range bounds {
		tasks[i] = &bandTask{index: i, lo: b[0], hi: b[1], band: bandGrid(target, b[0], b[1])}
	}

	busy := make([]float64, n)
	panicked := make([]any, n)
	var wg sync.WaitGroup
	for d, q := range place(tasks, n) {
		if len(q) == 0 {
			continue
		}
		wg.Add(1)
		go func(d int, q []*bandTask) {
			defer wg.Done()
			defer func() { panicked[d] = recover() }()
			busy[d] = f.runQueue(scope, d, q, p, target, comp)
		}(d, q)
	}
	wg.Wait()
	for _, r := range panicked {
		if r != nil {
			panic(r)
		}
	}

	agg := reassemble(target, comp, tasks, busy)

	f.mu.Lock()
	f.last = Stats{Bands: len(tasks), Busy: busy}
	f.mu.Unlock()
	f.record(target.Step, len(tasks), busy)
	sp.End(obs.I("bands", len(tasks)), obs.F("sim_sec", agg.Metrics.Time))
	return agg
}

// place assigns the bands to n devices longest-processing-time-first:
// the tallest band first (lower band index on ties) onto the device with
// the fewest queued rows (lower device index on ties).
func place(bands []*bandTask, n int) [][]*bandTask {
	order := append([]*bandTask(nil), bands...)
	sort.Slice(order, func(i, j int) bool {
		hi, hj := order[i].hi-order[i].lo, order[j].hi-order[j].lo
		if hi != hj {
			return hi > hj
		}
		return order[i].index < order[j].index
	})
	queues := make([][]*bandTask, n)
	load := make([]int, n)
	for _, t := range order {
		best := 0
		for d := 1; d < n; d++ {
			if load[d] < load[best] {
				best = d
			}
		}
		load[best] += t.hi - t.lo
		queues[best] = append(queues[best], t)
	}
	return queues
}

// runQueue runs device d's bands in order and returns the device's
// simulated busy time.
func (f *Fleet) runQueue(scope *obs.Observer, d int, q []*bandTask, p *retard.Problem, target *grid.Grid, comp int) float64 {
	var busy float64
	for _, t := range q {
		// Each band executes under its own child span of fleet/step; the
		// per-device kernel is re-scoped so its sub-phase spans parent
		// under the band. Only this goroutine touches f.algos[d], so the
		// re-scope is race-free.
		bsp := scope.Span("fleet/band", target.Step)
		if ob, ok := f.algos[d].(kernels.Observable); ok {
			ob.SetObserver(bsp.Scope())
		}
		t.res = f.algos[d].Step(p, t.band, comp)
		busy += t.res.Metrics.Time
		bsp.End(obs.I("device", d), obs.I("band", t.index),
			obs.I("rows", t.hi-t.lo), obs.F("sim_sec", t.res.Metrics.Time))
	}
	return busy
}

// reassemble copies every band's potentials into the target and
// aggregates the per-band step results in band order. The step was
// planned from a forecast only if every band's was.
func reassemble(target *grid.Grid, comp int, tasks []*bandTask, busy []float64) *kernels.StepResult {
	agg := &kernels.StepResult{Forecast: true}
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
		agg.Forecast = agg.Forecast && res.Forecast
		agg.ForecastErr = append(agg.ForecastErr, res.ForecastErr...)
	}
	if !agg.Forecast {
		agg.ForecastErr = nil
	}
	// Devices run concurrently: the step finishes when the busiest one
	// does.
	agg.Metrics.Time = maxOf(busy)
	return agg
}

// record mirrors the step's fleet behaviour into the metrics registry
// and, when a trace sink is attached, emits one "fleet/device" event per
// device so offline trace analysis (obstool fleet) can reconstruct
// per-device utilization without the registry snapshot.
func (f *Fleet) record(step, bands int, busy []float64) {
	if f.obs == nil {
		return
	}
	maxBusy := maxOf(busy)
	util := func(d int) float64 {
		if maxBusy == 0 {
			return 0
		}
		return busy[d] / maxBusy
	}
	if reg := f.obs.Reg; reg != nil {
		reg.Counter("fleet_steps_total").Inc()
		reg.Counter("fleet_bands_dispatched_total").Add(uint64(bands))
		for d := range busy {
			lbl := obs.Label{Key: "device", Value: strconv.Itoa(d)}
			reg.Gauge("fleet_device_busy_sim_seconds", lbl).Add(busy[d])
			if maxBusy > 0 {
				reg.Gauge("fleet_device_utilization", lbl).Set(util(d))
			}
		}
	}
	if f.obs.TraceEnabled() {
		for d := range busy {
			f.obs.Event("fleet/device", step,
				obs.I("device", d),
				obs.F("busy_sim_sec", busy[d]),
				obs.F("utilization", util(d)))
		}
	}
}

// maxOf returns the largest value of vs (0 for none).
func maxOf(vs []float64) float64 {
	var m float64
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// BandSplit splits ny rows into at most want contiguous bands of at least
// two rows each (the grid minimum), sizes differing by at most one row.
// It returns the [lo, hi) bounds in row order, taller bands first. Fewer
// than want bands come back when ny cannot feed them all — the surplus
// devices idle rather than take sub-minimal grids.
func BandSplit(ny, want int) [][2]int {
	if want < 1 {
		want = 1
	}
	if max := ny / 2; want > max {
		want = max
	}
	if want < 1 {
		want = 1
	}
	base, rem := ny/want, ny%want
	out := make([][2]int, 0, want)
	lo := 0
	for i := 0; i < want; i++ {
		h := base
		if i < rem {
			h++
		}
		out = append(out, [2]int{lo, lo + h})
		lo += h
	}
	return out
}

// bandGrid builds the [lo, hi) row-band view of target as a standalone
// grid whose geometry matches the band's rows.
func bandGrid(target *grid.Grid, lo, hi int) *grid.Grid {
	b := grid.New(target.NX, hi-lo, target.Comp,
		target.X0, target.Y0+float64(lo)*target.DY, target.DX, target.DY)
	b.Step = target.Step
	return b
}
