package kernels

import (
	"fmt"
	"sync"

	"beamdyn/internal/grid"
	"beamdyn/internal/obs"
	"beamdyn/internal/retard"
)

// MultiGPU runs a compute-potentials kernel data-parallel across several
// simulated devices: the target grid's rows are split into contiguous
// bands, one per device, and every device evaluates its band against the
// shared (read-only) moment-grid history. This is the strong-scaling
// arrangement the multi-GPU predecessor work of [10] uses — the
// rp-integral is embarrassingly parallel over grid points, so no halo
// exchange is needed; the only multi-device cost is the broadcast of the
// moment grids, which the simulator's per-device caches already model.
//
// The aggregated StepResult sums the work counters across devices and
// reports the wall time of the slowest device (devices run concurrently).
type MultiGPU struct {
	// Algos holds one kernel per device, each bound to its own Device.
	Algos []Algorithm
}

// NewMultiGPU wraps per-device kernels built by mk (invoked once per
// device).
func NewMultiGPU(devices int, mk func(device int) Algorithm) *MultiGPU {
	if devices < 1 {
		panic(fmt.Sprintf("kernels: %d devices", devices))
	}
	m := &MultiGPU{}
	for d := 0; d < devices; d++ {
		m.Algos = append(m.Algos, mk(d))
	}
	return m
}

// Name implements Algorithm.
func (m *MultiGPU) Name() string {
	return fmt.Sprintf("%s x%d", m.Algos[0].Name(), len(m.Algos))
}

// Reset implements Algorithm.
func (m *MultiGPU) Reset() {
	for _, a := range m.Algos {
		a.Reset()
	}
}

// SetObserver implements Observable, forwarding the telemetry layer to
// every per-device kernel that supports it.
func (m *MultiGPU) SetObserver(o *obs.Observer) {
	for _, a := range m.Algos {
		if ob, ok := a.(Observable); ok {
			ob.SetObserver(o)
		}
	}
}

// SetHostWorkers implements HostParallel, forwarding the host worker
// budget to every per-device kernel that supports it. The budget is per
// kernel, not split across devices: device Steps already run concurrently,
// so callers coordinating many devices on one host should pass a share.
func (m *MultiGPU) SetHostWorkers(n int) {
	for _, a := range m.Algos {
		if hp, ok := a.(HostParallel); ok {
			hp.SetHostWorkers(n)
		}
	}
}

// BandSplit splits ny rows into at most want contiguous bands of at least
// two rows each (the grid minimum), sizes differing by at most one row.
// It returns the [lo, hi) bounds in row order. Fewer than want bands come
// back when ny cannot feed them all — callers idle the surplus devices
// rather than handing them sub-minimal grids.
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

// Step implements Algorithm: bands of target rows run concurrently, one
// goroutine per device, and the results are reassembled in band order so
// the output is deterministic.
func (m *MultiGPU) Step(p *retard.Problem, target *grid.Grid, comp int) *StepResult {
	bounds := BandSplit(target.NY, len(m.Algos))
	if len(bounds) == 1 {
		return m.Algos[0].Step(p, target, comp)
	}

	// Each device owns a pre-sized result slot; no shared state is written
	// during the concurrent phase (the band grids are disjoint and the
	// moment-grid history is read-only).
	type slot struct {
		band *grid.Grid
		res  *StepResult
	}
	slots := make([]slot, len(bounds))
	var wg sync.WaitGroup
	for dev, b := range bounds {
		lo, hi := b[0], b[1]
		band := grid.New(target.NX, hi-lo, target.Comp,
			target.X0, target.Y0+float64(lo)*target.DY, target.DX, target.DY)
		band.Step = target.Step
		slots[dev].band = band
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			slots[dev].res = m.Algos[dev].Step(p, slots[dev].band, comp)
		}(dev)
	}
	wg.Wait()

	agg := &StepResult{Points: make([]Point, 0, target.NX*target.NY)}
	var maxTime float64
	for dev, b := range bounds {
		lo := b[0]
		band, res := slots[dev].band, slots[dev].res

		// Copy the band's potentials back into the full target.
		for iy := 0; iy < band.NY; iy++ {
			for ix := 0; ix < band.NX; ix++ {
				target.Set(ix, lo+iy, comp, band.At(ix, iy, comp))
			}
		}
		agg.Points = append(agg.Points, res.Points...)
		if res.Metrics.Time > maxTime {
			maxTime = res.Metrics.Time
		}
		agg.Metrics.Add(res.Metrics)
		agg.Host.Clustering += res.Host.Clustering
		agg.Host.Predict += res.Host.Predict
		agg.Host.Train += res.Host.Train
		agg.FallbackEntries += res.FallbackEntries
		agg.Launches += res.Launches
		agg.Fixed.Add(res.Fixed)
		agg.Adaptive.Add(res.Adaptive)
	}
	// Devices run concurrently: the stage finishes with the slowest one.
	agg.Metrics.Time = maxTime
	return agg
}
