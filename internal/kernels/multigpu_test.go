package kernels_test

// A kernel runs multi-GPU as a fleet.Fleet over healthy devices with one
// contiguous row-band per device (the static split of [10]). These tests
// check that arrangement from the kernel side; the fleet's own scheduling
// tests are in internal/fleet.

import (
	"testing"

	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
	"beamdyn/internal/retard"
)

// newMultiGPU runs mk's kernel on devices fresh K40s, one band per device.
func newMultiGPU(devices int, mk func(dev *gpusim.Device) kernels.Algorithm) *fleet.Fleet {
	devs := make([]*gpusim.Device, devices)
	for d := range devs {
		devs[d] = gpusim.New(gpusim.KeplerK40())
	}
	return fleet.New(fleet.Config{
		Devices:    devs,
		MakeKernel: func(_ int, dev *gpusim.Device) kernels.Algorithm { return mk(dev) },
	})
}

// rowStub is a scripted Algorithm: it writes each band row's physical y
// into every point, so reassembly coverage is checkable bitwise on a
// target with integer Y0/DY, and reports one second of simulated time.
type rowStub struct{}

func (rowStub) Name() string { return "stub" }
func (rowStub) Reset()       {}

func (rowStub) Step(p *retard.Problem, target *grid.Grid, comp int) *kernels.StepResult {
	for iy := 0; iy < target.NY; iy++ {
		for ix := 0; ix < target.NX; ix++ {
			target.Set(ix, iy, comp, target.Y0+float64(iy)*target.DY)
		}
	}
	res := &kernels.StepResult{Points: make([]kernels.Point, target.NX*target.NY)}
	res.Metrics.Time = 1
	return res
}

func TestMultiGPUBandEdgeCases(t *testing.T) {
	cases := []struct {
		name        string
		ny, devices int
		wantBands   int
	}{
		{"fewer rows than devices", 3, 4, 1},
		{"rows not divisible by devices", 7, 3, 3},
		{"two-row minimum caps bands", 5, 3, 2},
		{"single device degenerate", 9, 1, 1},
		{"even split", 16, 4, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMultiGPU(tc.devices, func(*gpusim.Device) kernels.Algorithm { return rowStub{} })
			target := grid.New(4, tc.ny, 1, 0, 0, 1, 1)
			res := m.Step(nil, target, 0)
			for iy := 0; iy < target.NY; iy++ {
				for ix := 0; ix < target.NX; ix++ {
					if got, want := target.At(ix, iy, 0), float64(iy); got != want {
						t.Fatalf("row %d col %d = %g, want %g (band never written?)", iy, ix, got, want)
					}
				}
			}
			if got, want := len(res.Points), 4*tc.ny; got != want {
				t.Fatalf("aggregated points = %d, want %d", got, want)
			}
			if got := m.LastStats().Bands; got != tc.wantBands {
				t.Fatalf("bands = %d, want %d", got, tc.wantBands)
			}
		})
	}
}

func TestMultiGPUNameAndReset(t *testing.T) {
	m := newMultiGPU(2, func(dev *gpusim.Device) kernels.Algorithm { return kernels.NewHeuristic(dev) })
	if m.Name() != "Fleet[Heuristic-RP x2]" {
		t.Fatalf("name %q", m.Name())
	}
	m.Reset() // must not panic
}

func TestNewMultiGPUPanicsOnZeroDevices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 devices did not panic")
		}
	}()
	newMultiGPU(0, nil)
}
