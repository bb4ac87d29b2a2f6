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
	// Manager is the device registry the scheduler runs against.
	Manager Manager
	// MakeKernel builds the per-device kernel bound to device id's
	// handle; it is invoked once per registered device.
	MakeKernel func(id int, dev *gpusim.Device) kernels.Algorithm
	// Bands fixes the total row-band count. 0 means one band per device,
	// the static split of the multi-GPU predecessor [10]. Holding Bands
	// constant across device counts makes the per-band numerics identical,
	// which is what the bitwise fault-tolerance tests rely on.
	Bands int
}

// Stats summarises the scheduler's behaviour during one Step.
type Stats struct {
	// Bands is the number of bands dispatched.
	Bands int
	// Retried counts bands re-placed after their device failed or became
	// unavailable mid-step: the band in flight and every band still
	// queued behind it.
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

// Fleet runs a compute-potentials kernel across a managed device fleet.
// It implements kernels.Algorithm, so it drops into core.Simulation, the
// benches and the experiments harness wherever a single-device kernel
// would.
type Fleet struct {
	cfg   Config
	mgr   Manager
	algos []kernels.Algorithm
	obs   *obs.Observer

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
// place them on the schedulable devices, run every device's queue on its
// own goroutine, re-place the bands of devices that failed over the
// survivors until none is left, and reassemble. Placement depends only on
// band rows and device slowdowns, and each device runs its queue in
// order, so the output depends only on the inputs and the manager's
// health script.
func (f *Fleet) Step(p *retard.Problem, target *grid.Grid, comp int) *kernels.StepResult {
	n := f.mgr.NumDevices()
	f.mgr.BeginStep(target.Step)
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

	live := make([]bool, n)
	for d := range live {
		live[d] = f.mgr.State(d).Schedulable()
	}
	busy := make([]float64, n)
	left := make([][]*bandTask, n)
	retried := 0
	for pending := tasks; len(pending) > 0; {
		queues := f.place(pending, live, target.Step)
		var wg sync.WaitGroup
		for d, q := range queues {
			if len(q) == 0 {
				continue
			}
			wg.Add(1)
			go func(d int, q []*bandTask) {
				defer wg.Done()
				left[d] = f.runQueue(scope, d, q, p, target, comp, &busy[d])
			}(d, q)
		}
		wg.Wait()
		pending = nil
		for d, l := range left {
			if len(l) > 0 {
				live[d] = false
				pending = append(pending, l...)
				left[d] = nil
			}
		}
		retried += len(pending)
	}

	agg := reassemble(target, comp, tasks, busy)

	f.mu.Lock()
	f.last = Stats{Bands: len(tasks), Retried: retried, Busy: busy}
	f.mu.Unlock()
	f.record(target.Step, len(tasks), retried, busy)
	sp.End(obs.I("bands", len(tasks)), obs.I("retried", retried),
		obs.F("sim_sec", agg.Metrics.Time))
	return agg
}

// place assigns one round's bands to the live devices
// longest-processing-time-first: the tallest band first (lower band index
// on ties) onto the device whose completion, its queued rows times its
// slowdown, is earliest (lower device index on ties). Every survivor is
// idle when a round starts, so each round places from zero load.
func (f *Fleet) place(bands []*bandTask, live []bool, step int) [][]*bandTask {
	order := append([]*bandTask(nil), bands...)
	sort.Slice(order, func(i, j int) bool {
		hi, hj := order[i].hi-order[i].lo, order[j].hi-order[j].lo
		if hi != hj {
			return hi > hj
		}
		return order[i].index < order[j].index
	})
	queues := make([][]*bandTask, len(live))
	load := make([]float64, len(live))
	for _, t := range order {
		best, bestDone := -1, 0.0
		for d, ok := range live {
			if !ok {
				continue
			}
			done := load[d] + float64(t.hi-t.lo)*f.mgr.Slowdown(d)
			if best < 0 || done < bestDone {
				best, bestDone = d, done
			}
		}
		if best < 0 {
			panic(fmt.Sprintf("fleet: band %d unplaced at step %d: no schedulable devices", t.index, step))
		}
		load[best] = bestDone
		queues[best] = append(queues[best], t)
	}
	return queues
}

// runQueue runs device d's bands in order. When the device fails it
// returns the band in flight, rebuilt clean, followed by the bands still
// queued behind it; nil means the queue finished.
func (f *Fleet) runQueue(scope *obs.Observer, d int, q []*bandTask, p *retard.Problem, target *grid.Grid, comp int, busy *float64) []*bandTask {
	for i, t := range q {
		// Each band executes under its own child span of fleet/step; the
		// per-device kernel is re-scoped so its sub-phase spans parent
		// under the band. Only this goroutine touches f.algos[d], so the
		// re-scope is race-free.
		bsp := scope.Span("fleet/band", target.Step)
		if ob, ok := f.algos[d].(kernels.Observable); ok {
			ob.SetObserver(bsp.Scope())
		}
		var res *kernels.StepResult
		err := f.mgr.ExecBand(d, func(dev *gpusim.Device) {
			res = f.algos[d].Step(p, t.band, comp)
		})
		if res != nil {
			// Even a doomed attempt kept the device busy until it died.
			*busy += res.Metrics.Time * f.mgr.Slowdown(d)
		}
		if err != nil {
			t.band = bandGrid(target, t.lo, t.hi)
			bsp.End(obs.I("device", d), obs.I("band", t.index),
				obs.I("rows", t.hi-t.lo), obs.S("outcome", "failed"))
			return q[i:]
		}
		t.res = res
		bsp.End(obs.I("device", d), obs.I("band", t.index),
			obs.I("rows", t.hi-t.lo), obs.F("sim_sec", res.Metrics.Time))
	}
	return nil
}

// reassemble copies every band's potentials into the target and
// aggregates the per-band step results in band order.
func reassemble(target *grid.Grid, comp int, tasks []*bandTask, busy []float64) *kernels.StepResult {
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
	// Devices run concurrently: the step finishes when the busiest one
	// does.
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
func (f *Fleet) record(step, bands, retried int, busy []float64) {
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
