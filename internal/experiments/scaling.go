package experiments

import (
	"fmt"
	"strings"

	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
)

// ScalingRow is one device count of the multi-GPU strong-scaling study.
type ScalingRow struct {
	Devices int
	// GPUTime is the per-step simulated wall time (slowest device).
	GPUTime float64
	// Speedup and Efficiency are relative to one device.
	Speedup    float64
	Efficiency float64
}

// ScalingResult is the strong-scaling study of the Predictive kernel —
// the natural extension of the multi-GPU line of work the paper's
// baseline [10] comes from.
type ScalingResult struct {
	Grid    int
	Kernel  KernelName
	Devices []ScalingRow
}

// Scaling measures per-step time of the named kernel across device
// counts on a fixed problem (strong scaling), on a fleet of healthy K40s
// with one row-band per device.
func Scaling(name KernelName, counts []int, scale Scale, seed uint64) *ScalingResult {
	nx := 64
	n := 100000
	if scale == Quick {
		nx, n = 32, 10000
	}
	res := &ScalingResult{Grid: nx, Kernel: name}
	var base float64
	for _, d := range counts {
		devs := make([]*gpusim.Device, d)
		for i := range devs {
			devs[i] = gpusim.New(gpusim.KeplerK40())
		}
		algo := fleet.New(fleet.Config{
			Devices: devs,
			MakeKernel: func(_ int, dev *gpusim.Device) kernels.Algorithm {
				return newAlgorithmOn(name, dev)
			},
		})
		cfg := baseConfig(n, nx, seed)
		_, _, gpu := measureKernel(cfg, algo, 2)
		row := ScalingRow{Devices: d, GPUTime: gpu}
		if base == 0 {
			base = gpu
		}
		if gpu > 0 {
			row.Speedup = base / gpu
			row.Efficiency = row.Speedup / float64(d)
		}
		res.Devices = append(res.Devices, row)
	}
	return res
}

// String renders the study.
func (r *ScalingResult) String() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Multi-GPU strong scaling: %s, grid %dx%d", r.Kernel, r.Grid, r.Grid),
		fmt.Sprintf("%8s %12s %8s %12s", "devices", "GPU time(s)", "speedup", "efficiency%"))
	for _, row := range r.Devices {
		fmt.Fprintf(&b, "%8d %12.3g %8.2f %12.1f\n",
			row.Devices, row.GPUTime, row.Speedup, 100*row.Efficiency)
	}
	return b.String()
}
