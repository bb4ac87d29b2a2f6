package fleet

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"beamdyn/internal/analytic"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/flight"
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

func testDevices(n int) []*gpusim.Device {
	devs := make([]*gpusim.Device, n)
	for i := range devs {
		devs[i] = gpusim.New(gpusim.KeplerK40())
	}
	return devs
}

// newKernelFleet builds a Fleet over devices fresh K40s running mk's
// kernel on every device; bands 0 means one band per device.
func newKernelFleet(devices, bands int, mk func(dev *gpusim.Device) kernels.Algorithm) *Fleet {
	return New(Config{
		Devices:    testDevices(devices),
		MakeKernel: func(id int, dev *gpusim.Device) kernels.Algorithm { return mk(dev) },
		Bands:      bands,
	})
}

// newTwoPhaseFleet builds a Fleet of TwoPhase kernels. TwoPhase carries
// no cross-step state, so per-band results depend only on the band
// geometry — the property the bitwise tests rely on.
func newTwoPhaseFleet(devices, bands int) *Fleet {
	return newKernelFleet(devices, bands, newTwoPhase)
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

	fl := newTwoPhaseFleet(2, 0)
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

	fl := newKernelFleet(4, 0, newPredictive)
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
		fl := newKernelFleet(devices, 0, newPredictive)
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

// TestFleetForwardsObserver: the fleet hands its observer to every band's
// kernel, so each band's Predictive-RP emits its sub-phase spans, and each
// parents under the band span of the device that ran it.
func TestFleetForwardsObserver(t *testing.T) {
	p, target := fixture(8, 24)
	fl := newKernelFleet(2, 0, newPredictive)
	sink := flight.New(0, nil)
	fl.SetObserver(&obs.Observer{Trace: obs.NewTracer(sink), Reg: obs.NewRegistry()})
	fl.Step(p, target.Clone(), 0)

	bandSpans := map[string]bool{}
	names := map[string]int{}
	for _, e := range sink.Events() {
		if e.Name == "fleet/band" {
			bandSpans[e.Span] = true
		}
	}
	for _, e := range sink.Events() {
		if strings.HasPrefix(e.Name, "predictive/") {
			if !bandSpans[e.Parent] {
				t.Fatalf("%s span parents under %q, not a band span", e.Name, e.Parent)
			}
			names[e.Name]++
		}
	}
	if len(bandSpans) != 2 {
		t.Fatalf("band spans = %d, want 2", len(bandSpans))
	}
	for _, want := range []string{"predictive/predict", "predictive/cluster", "predictive/verify", "predictive/fallback", "predictive/train"} {
		if names[want] != 2 {
			t.Fatalf("span %q seen %d times, want one per band (names: %v)", want, names[want], names)
		}
	}
}

// TestFleetBitwiseAcrossDeviceCounts holds the band count fixed and
// varies the device count: four devices must produce a potential grid
// bitwise identical to one device running the same eight bands, and the
// dispatch counter must appear in the obs metrics.
func TestFleetBitwiseAcrossDeviceCounts(t *testing.T) {
	p, target := fixture(8, 24)
	const bands = 8

	single := newTwoPhaseFleet(1, bands)
	baseline := target.Clone()
	single.Step(p, baseline, 0)

	fl := newTwoPhaseFleet(4, bands)
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
	snap := observer.Reg.Snapshot()
	if got := counterValue(t, snap, "fleet_bands_dispatched_total", nil); got != bands {
		t.Fatalf("fleet_bands_dispatched_total = %d, want %d", got, bands)
	}
	if got := counterValue(t, snap, "fleet_steps_total", nil); got != 1 {
		t.Fatalf("fleet_steps_total = %d, want 1", got)
	}
}

// TestFleetDeterministic repeats fleet runs and requires every repeat to
// be identical: the output grid bitwise, the Metrics printed with %#v and
// the Stats, after every step. The Predictive-RP case is the strict one:
// each device's model trains on the bands it ran, so any change in
// placement or queue order between repeats shows up in the grid.
func TestFleetDeterministic(t *testing.T) {
	cases := []struct {
		name         string
		mk           func(dev *gpusim.Device) kernels.Algorithm
		bands, steps int
		repeats      int
	}{
		{"twophase", newTwoPhase, 6, 1, 2},
		{"predictive", newPredictive, 6, 3, 6},
	}
	p, target := fixture(8, 24)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() []string {
				fl := newKernelFleet(3, tc.bands, tc.mk)
				var out []string
				for step := 0; step < tc.steps; step++ {
					g := target.Clone()
					g.Step = step
					res := fl.Step(p, g, 0)
					bits := make([]uint64, len(g.Data))
					for i, v := range g.Data {
						bits[i] = math.Float64bits(v)
					}
					out = append(out, fmt.Sprintf("step %d\n%v\n%#v\n%+v",
						step, bits, res.Metrics, fl.LastStats()))
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
// concurrency observable, can panic, and counts its calls and concurrent
// Steps.
type stubAlgo struct {
	simTime float64
	panics  any // when non-nil, every Step panics with it
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
	if s.panics != nil {
		panic(s.panics)
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

// newStubFleet builds a Fleet of stubs over devices fresh K40s, for a
// sentinel-friendly grid (Y0=0, DY=1, so the expected row value is
// exactly float64(row)).
func newStubFleet(devices, bands int, mk func(id int) *stubAlgo) *Fleet {
	return New(Config{
		Devices: testDevices(devices),
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
		calls            []int32 // bands run per device, when set
	}{
		{"fewer rows than devices", 3, 4, 0, 1, nil},
		{"rows not divisible by devices", 7, 3, 0, 3, nil},
		{"rows not divisible by bands", 7, 2, 3, 3, nil},
		{"two-row minimum caps bands", 5, 3, 0, 2, nil},
		{"single device degenerate", 12, 1, 0, 1, nil},
		{"even split", 16, 4, 0, 4, nil},
		{"more bands than rows allow", 8, 2, 100, 4, nil},
		// Heights 3,3,2,2,2,2,2: the two tall bands open devices 0 and 1,
		// then each short band joins the least-loaded device (rows 2, 5,
		// 5, 4 before bands 3-6), so device 2 runs three.
		{"7 bands on 3 devices", 16, 3, 7, 7, []int32{2, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := make([]atomic.Int32, tc.devices)
			fl := newStubFleet(tc.devices, tc.bands,
				func(id int) *stubAlgo { return &stubAlgo{calls: &calls[id]} })
			target := grid.New(4, tc.ny, 1, 0, 0, 1, 1)
			res := fl.Step(nil, target, 0)
			assertFullTarget(t, target)
			if got, want := len(res.Points), 4*tc.ny; got != want {
				t.Fatalf("aggregated points = %d, want %d", got, want)
			}
			if got := fl.LastStats().Bands; got != tc.wantBands {
				t.Fatalf("bands = %d, want %d", got, tc.wantBands)
			}
			for d, want := range tc.calls {
				if got := calls[d].Load(); got != want {
					t.Fatalf("device %d ran %d bands, want %d", d, got, want)
				}
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
	fl := newStubFleet(4, 0, func(d int) *stubAlgo {
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
	fl := newStubFleet(devices, 0, func(d int) *stubAlgo {
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

func TestFleetNameAndReset(t *testing.T) {
	fl := newTwoPhaseFleet(3, 0)
	if fl.Name() != "Fleet[Two-Phase-RP x3]" {
		t.Fatalf("name = %q", fl.Name())
	}
	fl.Reset() // must not panic
}

func TestNewPanicsWithoutDevices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a fleet over no devices did not panic")
		}
	}()
	New(Config{MakeKernel: func(int, *gpusim.Device) kernels.Algorithm { return &stubAlgo{} }})
}

// TestFleetStepRepanicsOnCaller: a kernel panic on a device goroutine
// must reach Step's caller instead of killing the process, after every
// other queue has finished, with the lowest panicking device's value.
func TestFleetStepRepanicsOnCaller(t *testing.T) {
	var calls [3]atomic.Int32
	fl := newStubFleet(3, 6, func(id int) *stubAlgo {
		s := &stubAlgo{calls: &calls[id]}
		if id > 0 {
			s.panics = fmt.Sprintf("device %d lost", id)
		}
		return s
	})
	func() {
		defer func() {
			if r := recover(); r != "device 1 lost" {
				t.Fatalf("Step panicked with %v, want device 1's value", r)
			}
		}()
		fl.Step(nil, grid.New(4, 12, 1, 0, 0, 1, 1), 0)
	}()
	if got := calls[0].Load(); got != 2 {
		t.Fatalf("healthy device ran %d of its 2 bands before the re-panic", got)
	}
}

func TestFleetEmitsPerDeviceTraceEvents(t *testing.T) {
	sink := flight.New(0, nil)
	o := &obs.Observer{Trace: obs.NewTracer(sink), Reg: obs.NewRegistry()}
	fl := newStubFleet(2, 4, func(id int) *stubAlgo { return &stubAlgo{} })
	fl.SetObserver(o)

	target := grid.New(4, 8, 1, 0, 0, 1, 1)
	target.Step = 9
	fl.Step(nil, target, 0)

	var devEvents int
	for _, e := range sink.Events() {
		if e.Name != "fleet/device" {
			continue
		}
		devEvents++
		if e.Step != 9 || e.Kind != "event" {
			t.Fatalf("fleet/device event wrong: %+v", e)
		}
		for _, key := range []string{"device", "busy_sim_sec", "utilization"} {
			if _, ok := e.Attrs[key]; !ok {
				t.Fatalf("fleet/device event missing %q: %+v", key, e.Attrs)
			}
		}
		if e.Attrs["utilization"] != 1.0 {
			t.Fatalf("equal queues: utilization = %v, want 1", e.Attrs["utilization"])
		}
	}
	if devEvents != 2 {
		t.Fatalf("fleet/device events = %d, want one per device", devEvents)
	}
}
