package fleet

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"beamdyn/internal/analytic"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/phys"
	"beamdyn/internal/retard"
)

// fixture builds a continuum history and the matching problem + square
// target (the same scenario the kernels package tests against).
func fixture(steps, nx int) (*retard.Problem, *grid.Grid) {
	beam := phys.Beam{
		NumParticles: 1, TotalCharge: 1e-9,
		SigmaX: 20e-6, SigmaY: 50e-6, Energy: 4.3e9,
	}
	params := retard.Params{
		Dt:        50e-6 / phys.C,
		Kappa:     4,
		Tol:       1e-8,
		WeightExp: 1.0 / 3,
		Component: grid.CompCharge,
	}
	h := grid.NewHistory(params.Kappa + 4)
	v := beam.Beta() * phys.C
	var last *grid.Grid
	for s := 0; s < steps; s++ {
		cy := float64(s) * v * params.Dt
		hx, hy := 5*beam.SigmaX, 5*beam.SigmaY
		g := grid.New(nx, nx, grid.MomentComponents, -hx, cy-hy, 2*hx/float64(nx-1), 2*hy/float64(nx-1))
		g.Step = s
		analytic.ContinuumDeposit(g, beam, 0, cy)
		h.Push(g)
		last = g
	}
	p := retard.NewProblem(h, params)
	target := grid.New(nx, nx, 1, last.X0, last.Y0, last.DX, last.DY)
	return p, target
}

// newKernelFleet builds a Fleet over mgr running mk's kernel on every
// device; bands 0 means one band per device.
func newKernelFleet(mgr Manager, bands int, mk func(dev *gpusim.Device) kernels.Algorithm) *Fleet {
	return New(Config{
		Manager:    mgr,
		MakeKernel: func(id int, dev *gpusim.Device) kernels.Algorithm { return mk(dev) },
		Bands:      bands,
	})
}

// newTwoPhaseFleet builds a Fleet of TwoPhase kernels over mgr. TwoPhase
// carries no cross-step state, so per-band results depend only on the band
// geometry — the property the bitwise tests rely on.
func newTwoPhaseFleet(mgr Manager, bands int) *Fleet {
	return newKernelFleet(mgr, bands, newTwoPhase)
}

func newTwoPhase(dev *gpusim.Device) kernels.Algorithm   { return kernels.NewTwoPhase(dev) }
func newPredictive(dev *gpusim.Device) kernels.Algorithm { return kernels.NewPredictive(dev) }

func counterValue(t *testing.T, snap obs.Snapshot, name string, labels map[string]string) uint64 {
	t.Helper()
outer:
	for _, c := range snap.Counters {
		if c.Name != name {
			continue
		}
		for k, v := range labels {
			if c.Labels[k] != v {
				continue outer
			}
		}
		return c.Value
	}
	return 0
}

// maxRelDev returns the largest |got - ref| over ref's largest magnitude.
func maxRelDev(ref, got *grid.Grid) float64 {
	scale := ref.MaxAbs(0)
	var worst float64
	for i := range ref.Data {
		if d := math.Abs(ref.Data[i]-got.Data[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

func TestFleetMatchesReference(t *testing.T) {
	p, target := fixture(8, 24)
	ref := target.Clone()
	p.SolveGrid(ref, 0)

	fl := newTwoPhaseFleet(NewFixed(testDevices(2)), 0)
	out := target.Clone()
	res := fl.Step(p, out, 0)

	if worst := maxRelDev(ref, out); worst > 0.02 {
		t.Fatalf("fleet potentials deviate from reference by %g", worst)
	}
	if len(res.Points) != 24*24 {
		t.Fatalf("aggregated points = %d, want %d", len(res.Points), 24*24)
	}
	if res.Metrics.Time <= 0 {
		t.Fatal("no simulated time accumulated")
	}
	if st := fl.LastStats(); st.Bands != 2 {
		t.Fatalf("bands = %d, want 2 (one per device)", st.Bands)
	}
}

// TestFleetPredictiveMatchesReference runs the stateful kernel at four
// devices: after a bootstrap step the trained per-device models must land
// within 2% of the host reference.
func TestFleetPredictiveMatchesReference(t *testing.T) {
	p, target := fixture(8, 32)
	ref := target.Clone()
	p.SolveGrid(ref, 0)

	fl := newKernelFleet(NewFixed(testDevices(4)), 0, newPredictive)
	fl.Step(p, target.Clone(), 0) // bootstrap
	out := target.Clone()
	res := fl.Step(p, out, 0)

	if worst := maxRelDev(ref, out); worst > 0.02 {
		t.Fatalf("4-device potentials deviate from reference by %g", worst)
	}
	if len(res.Points) != 32*32 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Metrics.Time <= 0 {
		t.Fatal("no time")
	}
}

// TestFleetScales checks strong scaling of Predictive-RP at one band per
// device: four devices must beat one by 2-4.5x in simulated time.
func TestFleetScales(t *testing.T) {
	p, target := fixture(8, 48)
	time := func(devices int) float64 {
		fl := newKernelFleet(NewFixed(testDevices(devices)), 0, newPredictive)
		fl.Step(p, target.Clone(), 0)
		return fl.Step(p, target.Clone(), 0).Metrics.Time
	}
	t1 := time(1)
	t4 := time(4)
	speedup := t1 / t4
	if speedup < 2 {
		t.Fatalf("4-device speedup %.2f, want >= 2 (t1=%g t4=%g)", speedup, t1, t4)
	}
	if speedup > 4.5 {
		t.Fatalf("super-linear speedup %.2f is implausible", speedup)
	}
}

func TestFleetForwardsObserver(t *testing.T) {
	p, target := fixture(8, 24)
	fl := newKernelFleet(NewFixed(testDevices(2)), 0, newPredictive)
	o := obs.New()
	fl.SetObserver(o)
	fl.Step(p, target.Clone(), 0)
	if len(o.Pred.Samples()) != 2 {
		t.Fatalf("per-band samples = %d, want 2", len(o.Pred.Samples()))
	}
}

// TestFleetChaos is the acceptance scenario: one of four devices scripted
// to fail mid-step. The fleet must complete the step, the potential grid
// must be bitwise identical to a single-device run with the same band
// decomposition, and the retried-band / state-transition counters must
// appear in the obs metrics.
func TestFleetChaos(t *testing.T) {
	p, target := fixture(8, 24)
	const bands = 8

	// Single-device baseline with the same explicit decomposition.
	single := newTwoPhaseFleet(NewFixed(testDevices(1)), bands)
	baseline := target.Clone()
	single.Step(p, baseline, 0)

	// Four devices, device 1 dies during its first band of step 0.
	events, err := ParseEvents("fail:dev=1,step=0,after=1")
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewInjectable(testDevices(4), events)
	fl := newTwoPhaseFleet(mgr, bands)
	observer := obs.New()
	fl.SetObserver(observer)

	out := target.Clone()
	fl.Step(p, out, 0)

	for i := range baseline.Data {
		if out.Data[i] != baseline.Data[i] {
			t.Fatalf("potential grid diverges from single-device result at %d: %g != %g",
				i, out.Data[i], baseline.Data[i])
		}
	}

	// Device 1 held bands 1 and 5: the one in flight and the one queued
	// behind it are both re-placed.
	st := fl.LastStats()
	if st.Retried != 2 {
		t.Fatalf("retried = %d, want 2 (the band in flight and the one queued behind it)", st.Retried)
	}
	if mgr.State(1) != Failed {
		t.Fatalf("device 1 state = %v, want Failed", mgr.State(1))
	}
	trans := mgr.Transitions()
	if len(trans) != 1 || trans[0].Device != 1 || trans[0].From != Healthy || trans[0].To != Failed {
		t.Fatalf("transitions = %+v, want one Healthy->Failed on device 1", trans)
	}

	snap := observer.Reg.Snapshot()
	if got := counterValue(t, snap, "fleet_bands_retried_total", nil); got != 2 {
		t.Fatalf("fleet_bands_retried_total = %d, want 2", got)
	}
	if got := counterValue(t, snap, "fleet_device_state_transitions_total",
		map[string]string{"device": "1", "to": "failed"}); got != 1 {
		t.Fatalf("fleet_device_state_transitions_total{device=1,to=failed} = %d, want 1", got)
	}
	if got := counterValue(t, snap, "fleet_bands_dispatched_total", nil); got != bands {
		t.Fatalf("fleet_bands_dispatched_total = %d, want %d", got, bands)
	}
}

// TestFleetDeterministic repeats scripted chaos runs and requires every
// repeat to be identical: the output grid bitwise, the Metrics printed
// with %#v, the Stats and the state-transition log, after every step.
// The Predictive-RP case is the strict one: each device's model trains
// on the bands it ran, so any change in placement or queue order between
// repeats shows up in the grid.
func TestFleetDeterministic(t *testing.T) {
	cases := []struct {
		name           string
		mk             func(dev *gpusim.Device) kernels.Algorithm
		script         string
		bands, steps   int
		repeats        int
		wantRetriedSum int
	}{
		{"twophase", newTwoPhase, "fail:dev=2,step=0,after=1;slow:dev=0,step=0,factor=2", 6, 1, 2, 2},
		{"predictive", newPredictive,
			"fail:dev=2,step=1,after=1;slow:dev=0,step=0,factor=2", 6, 3, 6, 2},
	}
	p, target := fixture(8, 24)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() []string {
				events, err := ParseEvents(tc.script)
				if err != nil {
					t.Fatal(err)
				}
				mgr := NewInjectable(testDevices(3), events)
				fl := newKernelFleet(mgr, tc.bands, tc.mk)
				var out []string
				retried := 0
				for step := 0; step < tc.steps; step++ {
					g := target.Clone()
					g.Step = step
					res := fl.Step(p, g, 0)
					st := fl.LastStats()
					retried += st.Retried
					bits := make([]uint64, len(g.Data))
					for i, v := range g.Data {
						bits[i] = math.Float64bits(v)
					}
					out = append(out, fmt.Sprintf("step %d\n%v\n%#v\n%+v\n%+v",
						step, bits, res.Metrics, st, mgr.Transitions()))
				}
				if retried != tc.wantRetriedSum {
					t.Fatalf("retried %d bands over the run, want %d", retried, tc.wantRetriedSum)
				}
				return out
			}
			first := run()
			for r := 1; r < tc.repeats; r++ {
				again := run()
				for step := range first {
					if again[step] != first[step] {
						t.Fatalf("repeat %d differs at step %d:\n got  %.300s\n want %.300s",
							r, step, again[step], first[step])
					}
				}
			}
		})
	}
}

// stubAlgo is a scripted kernels.Algorithm for scheduler-only tests: it
// writes a row sentinel (so reassembly coverage is checkable), reports a
// preset simulated time (1 when unset), can sleep to make host-side
// concurrency observable, and counts its calls and concurrent Steps.
type stubAlgo struct {
	simTime float64
	sleep   time.Duration
	calls   *atomic.Int32
	running *atomic.Int32 // current concurrent Step calls
	peak    *atomic.Int32 // high-water mark of running
}

func (s *stubAlgo) Name() string { return "stub" }
func (s *stubAlgo) Reset()       {}

func (s *stubAlgo) Step(p *retard.Problem, target *grid.Grid, comp int) *kernels.StepResult {
	if s.calls != nil {
		s.calls.Add(1)
	}
	if s.running != nil {
		n := s.running.Add(1)
		for {
			old := s.peak.Load()
			if n <= old || s.peak.CompareAndSwap(old, n) {
				break
			}
		}
		defer s.running.Add(-1)
	}
	if s.sleep > 0 {
		time.Sleep(s.sleep)
	}
	for iy := 0; iy < target.NY; iy++ {
		for ix := 0; ix < target.NX; ix++ {
			target.Set(ix, iy, comp, target.Y0+float64(iy)*target.DY)
		}
	}
	res := &kernels.StepResult{Points: make([]kernels.Point, target.NX*target.NY)}
	res.Metrics.Time = s.simTime
	if res.Metrics.Time == 0 {
		res.Metrics.Time = 1
	}
	return res
}

// newStubFleet builds a Fleet of stubs over a sentinel-friendly grid
// (Y0=0, DY=1, so the expected row value is exactly float64(row)).
func newStubFleet(mgr Manager, bands int, mk func(id int) *stubAlgo) *Fleet {
	return New(Config{
		Manager: mgr,
		MakeKernel: func(id int, dev *gpusim.Device) kernels.Algorithm {
			return mk(id)
		},
		Bands: bands,
	})
}

func assertFullTarget(t *testing.T, g *grid.Grid) {
	t.Helper()
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			if got, want := g.At(ix, iy, 0), float64(iy); got != want {
				t.Fatalf("row %d col %d = %g, want %g (band never reassembled?)", iy, ix, got, want)
			}
		}
	}
}

func TestFleetBandEdgeCases(t *testing.T) {
	cases := []struct {
		name             string
		ny, devices      int
		bands, wantBands int
	}{
		{"fewer rows than devices", 3, 4, 0, 1},
		{"rows not divisible by devices", 7, 3, 0, 3},
		{"rows not divisible by bands", 7, 2, 3, 3},
		{"two-row minimum caps bands", 5, 3, 0, 2},
		{"single device degenerate", 12, 1, 0, 1},
		{"even split", 16, 4, 0, 4},
		{"more bands than rows allow", 8, 2, 100, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fl := newStubFleet(NewFixed(testDevices(tc.devices)), tc.bands,
				func(int) *stubAlgo { return &stubAlgo{} })
			target := grid.New(4, tc.ny, 1, 0, 0, 1, 1)
			res := fl.Step(nil, target, 0)
			assertFullTarget(t, target)
			if got, want := len(res.Points), 4*tc.ny; got != want {
				t.Fatalf("aggregated points = %d, want %d", got, want)
			}
			if got := fl.LastStats().Bands; got != tc.wantBands {
				t.Fatalf("bands = %d, want %d", got, tc.wantBands)
			}
		})
	}
}

func TestBandSplit(t *testing.T) {
	cases := []struct {
		ny, want int
		bands    [][2]int
	}{
		{16, 4, [][2]int{{0, 4}, {4, 8}, {8, 12}, {12, 16}}},
		{7, 3, [][2]int{{0, 3}, {3, 5}, {5, 7}}},
		{3, 4, [][2]int{{0, 3}}},         // can't give 4 devices >= 2 rows each
		{5, 3, [][2]int{{0, 3}, {3, 5}}}, // capped at NY/2 bands
		{2, 5, [][2]int{{0, 2}}},         // minimum grid
		{10, 0, [][2]int{{0, 10}}},       // degenerate request
		{64, 8, nil},                     // checked structurally below
	}
	for _, tc := range cases {
		got := BandSplit(tc.ny, tc.want)
		// Structural invariants: contiguous cover of [0, ny), every band
		// at least 2 rows (unless ny < 4 forces a single band), sizes
		// within one row of each other.
		lo := 0
		minH, maxH := tc.ny, 0
		for _, b := range got {
			if b[0] != lo {
				t.Fatalf("BandSplit(%d,%d): band %v not contiguous at %d", tc.ny, tc.want, b, lo)
			}
			h := b[1] - b[0]
			if h < 2 && len(got) > 1 {
				t.Fatalf("BandSplit(%d,%d): band %v below 2-row minimum", tc.ny, tc.want, b)
			}
			if h < minH {
				minH = h
			}
			if h > maxH {
				maxH = h
			}
			lo = b[1]
		}
		if lo != tc.ny {
			t.Fatalf("BandSplit(%d,%d): covers [0,%d), want [0,%d)", tc.ny, tc.want, lo, tc.ny)
		}
		if maxH-minH > 1 {
			t.Fatalf("BandSplit(%d,%d): unbalanced band heights %d..%d", tc.ny, tc.want, minH, maxH)
		}
		if tc.bands != nil {
			if len(got) != len(tc.bands) {
				t.Fatalf("BandSplit(%d,%d) = %v, want %v", tc.ny, tc.want, got, tc.bands)
			}
			for i := range got {
				if got[i] != tc.bands[i] {
					t.Fatalf("BandSplit(%d,%d) = %v, want %v", tc.ny, tc.want, got, tc.bands)
				}
			}
		}
	}
}

func TestFleetTimeIsMaxNotSum(t *testing.T) {
	fl := newStubFleet(NewFixed(testDevices(4)), 0, func(d int) *stubAlgo {
		return &stubAlgo{simTime: float64(d + 1)}
	})
	target := grid.New(8, 16, 1, 0, 0, 1, 1)
	res := fl.Step(nil, target, 0)
	// Devices run concurrently in simulated time: the aggregate is the
	// slowest device (4), not the sum (10).
	if res.Metrics.Time != 4 {
		t.Fatalf("aggregated Metrics.Time = %g, want max 4 (sum would be 10)", res.Metrics.Time)
	}
	assertFullTarget(t, target)
}

func TestFleetStepsRunConcurrently(t *testing.T) {
	var running, peak atomic.Int32
	const devices = 4
	fl := newStubFleet(NewFixed(testDevices(devices)), 0, func(d int) *stubAlgo {
		return &stubAlgo{sleep: 50 * time.Millisecond, running: &running, peak: &peak}
	})
	target := grid.New(8, 16, 1, 0, 0, 1, 1)
	t0 := time.Now()
	fl.Step(nil, target, 0)
	wall := time.Since(t0)
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak concurrent device Steps = %d, want >= 2", p)
	}
	// Sequential execution would take >= devices * sleep = 200ms.
	if wall >= devices*50*time.Millisecond {
		t.Fatalf("wall time %v not faster than sequential execution", wall)
	}
	assertFullTarget(t, target)
}

func TestFleetSkipsUnschedulableDevices(t *testing.T) {
	mgr := NewFixed(testDevices(3))
	mgr.SetState(2, Draining, "maintenance")
	var calls [3]atomic.Int32
	fl := newStubFleet(mgr, 6, func(id int) *stubAlgo {
		return &stubAlgo{calls: &calls[id]}
	})
	target := grid.New(4, 12, 1, 0, 0, 1, 1)
	fl.Step(nil, target, 0)
	assertFullTarget(t, target)
	if calls[2].Load() != 0 {
		t.Fatalf("draining device executed %d bands, want 0", calls[2].Load())
	}
	if calls[0].Load() != 3 || calls[1].Load() != 3 {
		t.Fatalf("surviving devices ran %d+%d bands, want 3+3", calls[0].Load(), calls[1].Load())
	}
}

func TestFleetDegradedDeviceGetsLessWork(t *testing.T) {
	// The placement charges the 4x-degraded device four times each band's
	// rows: of 8 two-row bands it takes one (completion 8 against the
	// healthy device's 14; a second band would finish at 16).
	mgr := NewFixed(testDevices(2))
	mgr.SetState(1, Degraded, "thermal throttling")
	mgr.SetSlowdown(1, 4)
	var calls [2]atomic.Int32
	fl := newStubFleet(mgr, 8, func(id int) *stubAlgo {
		return &stubAlgo{calls: &calls[id]}
	})
	target := grid.New(4, 16, 1, 0, 0, 1, 1)
	fl.Step(nil, target, 0)
	assertFullTarget(t, target)
	if calls[0].Load() != 7 || calls[1].Load() != 1 {
		t.Fatalf("healthy/degraded devices ran %d/%d bands, want 7/1",
			calls[0].Load(), calls[1].Load())
	}
	st := fl.LastStats()
	if st.Busy[1] != float64(calls[1].Load())*4 {
		t.Fatalf("degraded busy time %g, want %d bands x 4", st.Busy[1], calls[1].Load())
	}
}

// TestFleetRetriesInRounds kills a device in the first round and its
// first replacement in the second: every band still lands, and each
// failed device's in-flight and queued bands count as retried.
func TestFleetRetriesInRounds(t *testing.T) {
	events, err := ParseEvents("fail:dev=0,step=3,after=1;fail:dev=1,step=3,after=3")
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewInjectable(testDevices(3), events)
	var calls [3]atomic.Int32
	fl := newStubFleet(mgr, 6, func(id int) *stubAlgo {
		return &stubAlgo{calls: &calls[id]}
	})
	target := grid.New(4, 12, 1, 0, 0, 1, 1)
	target.Step = 3
	fl.Step(nil, target, 0)
	assertFullTarget(t, target)

	// Round 1: bands {0,3} {1,4} {2,5}; device 0 dies in band 0 and
	// leaves 0 and 3. Round 2: band 0 to device 1, band 3 to device 2;
	// device 1 dies in band 0 (its third). Round 3: band 0 to device 2.
	st := fl.LastStats()
	if st.Retried != 3 {
		t.Fatalf("retried = %d, want 3 (2 from device 0, 1 from device 1)", st.Retried)
	}
	if got := [3]int32{calls[0].Load(), calls[1].Load(), calls[2].Load()}; got != [3]int32{1, 3, 4} {
		t.Fatalf("band attempts per device = %v, want [1 3 4]", got)
	}
	if mgr.State(0) != Failed || mgr.State(1) != Failed || mgr.State(2) != Healthy {
		t.Fatalf("states = %v/%v/%v, want failed/failed/healthy", mgr.State(0), mgr.State(1), mgr.State(2))
	}
}

func TestFleetNameAndReset(t *testing.T) {
	fl := newTwoPhaseFleet(NewFixed(testDevices(3)), 0)
	if fl.Name() != "Fleet[Two-Phase-RP x3]" {
		t.Fatalf("name = %q", fl.Name())
	}
	fl.Reset() // must not panic
}

func TestFleetPanicsWhenNoDevicesSchedulable(t *testing.T) {
	mgr := NewFixed(testDevices(1))
	mgr.SetState(0, Failed, "dead on arrival")
	fl := newStubFleet(mgr, 2, func(int) *stubAlgo { return &stubAlgo{} })
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling onto an all-failed fleet did not panic")
		}
	}()
	fl.Step(nil, grid.New(4, 8, 1, 0, 0, 1, 1), 0)
}
