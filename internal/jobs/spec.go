// Package jobs is the simulation job control plane: it turns the one-shot
// simulation loop into a long-running service where runs are submitted,
// queued, dispatched, observed and recovered as jobs.
//
// The pieces, front to back:
//
//   - Spec — a declarative JSON job payload (beam, grid, steps, kernel,
//     fleet topology, alert rules). It doubles as the scenario format of
//     the catalog under examples/scenarios.
//   - Queue — one FIFO in admission order, with cancellation of queued
//     jobs; a resumed job keeps its place.
//   - Server — the dispatcher: a pool of workers, each running one job at
//     a time on devices built for the attempt (internal/fleet over
//     internal/gpusim, host phases on internal/hostpar). Running jobs
//     checkpoint at every step boundary through the core gob machinery; a
//     job whose attempt panics is re-queued and resumed from its latest
//     checkpoint on fresh devices, bitwise-identically to an
//     uninterrupted run.
//   - Handler — the HTTP/JSON API (POST /jobs, GET /jobs/{id}, the event
//     log, result fetch, DELETE) designed to be mounted onto the
//     internal/obs/export server, with jobs_* metrics and per-job trace
//     spans flowing into the same observer as everything else.
package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"beamdyn/internal/core"
	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs/alert"
	"beamdyn/internal/particles"
	"beamdyn/internal/phys"
)

// BeamSpec is the JSON shape of the bunch parameters.
type BeamSpec struct {
	// Particles is the macro-particle count N.
	Particles int `json:"particles"`
	// ChargeC is the total bunch charge in coulombs.
	ChargeC float64 `json:"charge_c"`
	// SigmaX, SigmaY are the transverse / longitudinal RMS sizes in metres.
	SigmaX float64 `json:"sigma_x_m"`
	SigmaY float64 `json:"sigma_y_m"`
	// EnergyEV is the kinetic energy in eV.
	EnergyEV float64 `json:"energy_ev"`
	// EmittanceM is the transverse RMS emittance in m·rad (0 = cold beam).
	EmittanceM float64 `json:"emittance_m,omitempty"`
	// Shape selects the longitudinal profile: "gaussian" (default),
	// "flattop", "double-gaussian" or "parabolic".
	Shape string `json:"shape,omitempty"`
}

// GridSpec is the JSON shape of the moment-grid geometry.
type GridSpec struct {
	// NX, NY is the grid resolution; NY defaults to NX.
	NX int `json:"nx"`
	NY int `json:"ny,omitempty"`
	// PadSigma is the grid half-extent in beam sigmas (default 5).
	PadSigma float64 `json:"pad_sigma,omitempty"`
}

// FleetSpec is the JSON shape of the device topology a job runs on.
type FleetSpec struct {
	// Devices is the simulated-device count of the job's fleet (default
	// 1, at most fleet.MaxDevices).
	Devices int `json:"devices,omitempty"`
	// Bands fixes the fleet's row-band count; 0 means one band per
	// device. Either way the band count is a function of the spec, and a
	// resumed attempt gets the same device count, so a job resumes with
	// the per-band numerics it started with (the bitwise recovery
	// guarantee).
	Bands int `json:"bands,omitempty"`
}

// Spec is the declarative job payload: everything needed to run one
// simulation as a managed job. The zero values of the optional fields are
// filled by Normalize; Validate rejects payloads the dispatcher could not
// run. Unknown JSON fields are rejected at parse time, so typos fail at
// submission rather than silently running a default.
type Spec struct {
	// Name labels the job (required; [a-z0-9-] only).
	Name string `json:"name"`

	Beam BeamSpec `json:"beam"`
	Grid GridSpec `json:"grid"`
	// Steps is the number of time steps after the retardation history has
	// filled (the same count beamsim -steps runs).
	Steps int `json:"steps"`
	// Kernel selects the compute-potentials algorithm: "reference",
	// "twophase", "heuristic" or "predictive" (default).
	Kernel string `json:"kernel,omitempty"`
	// Kappa is the retardation depth in subregions (default 6).
	Kappa int `json:"kappa,omitempty"`
	// Tol is the rp-integral tolerance (default 1e-8).
	Tol float64 `json:"tol,omitempty"`
	// Seed seeds the Monte-Carlo sampling.
	Seed uint64 `json:"seed,omitempty"`
	// Dynamic lets the bunch respond to its self-forces (default: rigid).
	Dynamic bool `json:"dynamic,omitempty"`
	// HostWorkers bounds the host worker pool of the kernels' learning
	// phases, the host reference solver and the particle force gather
	// and push (0 = GOMAXPROCS; results are identical for any value).
	HostWorkers int `json:"host_workers,omitempty"`

	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Alerts is a per-step alert rule script in the alert.ParseRules
	// grammar ("default" selects the built-in set; empty disables).
	// Firing alerts surface as job events.
	Alerts string `json:"alerts,omitempty"`
}

// ParseSpec decodes a Spec from JSON, rejecting unknown fields, and
// normalizes + validates it.
func ParseSpec(data []byte) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("jobs: parsing spec: %w", err)
	}
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// LoadSpec reads and parses a Spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	sp, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// Normalize fills defaulted fields in place, so a normalized spec
// re-marshals to its full form (the catalog round-trip contract).
func (sp *Spec) Normalize() {
	if sp.Kernel == "" {
		sp.Kernel = "predictive"
	}
	if sp.Beam.Shape == "" {
		sp.Beam.Shape = "gaussian"
	}
	if sp.Grid.NY == 0 {
		sp.Grid.NY = sp.Grid.NX
	}
	if sp.Grid.PadSigma == 0 {
		sp.Grid.PadSigma = 5
	}
	if sp.Kappa == 0 {
		sp.Kappa = 6
	}
	if sp.Tol == 0 {
		sp.Tol = 1e-8
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Fleet != nil && sp.Fleet.Devices == 0 {
		sp.Fleet.Devices = 1
	}
}

// kernelNames maps the spec's kernel field to a constructor (nil =
// sequential host reference).
var kernelNames = map[string]func(*gpusim.Device) kernels.Algorithm{
	"reference": nil,
	"twophase":  func(d *gpusim.Device) kernels.Algorithm { return kernels.NewTwoPhase(d) },
	"heuristic": func(d *gpusim.Device) kernels.Algorithm { return kernels.NewHeuristic(d) },
	"predictive": func(d *gpusim.Device) kernels.Algorithm {
		return kernels.NewPredictive(d)
	},
}

// shapeNames maps the beam spec's shape field to the sampler.
var shapeNames = map[string]particles.Shape{
	"gaussian":        particles.GaussianShape,
	"flattop":         particles.FlatTopShape,
	"double-gaussian": particles.DoubleGaussianShape,
	"parabolic":       particles.ParabolicShape,
}

// Validate checks a normalized spec, returning the first problem found.
// The simulation parameters are checked by core.Config.Validate on the
// translated config; the rules here cover only what the spec adds.
func (sp *Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("jobs: spec: missing name")
	}
	for _, r := range sp.Name {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-') {
			return fmt.Errorf("jobs: spec %q: name must be [a-z0-9-]", sp.Name)
		}
	}
	if sp.Steps <= 0 {
		return fmt.Errorf("jobs: spec %q: steps must be positive", sp.Name)
	}
	if _, ok := kernelNames[sp.Kernel]; !ok {
		return fmt.Errorf("jobs: spec %q: unknown kernel %q", sp.Name, sp.Kernel)
	}
	if _, ok := shapeNames[sp.Beam.Shape]; !ok {
		return fmt.Errorf("jobs: spec %q: unknown beam shape %q", sp.Name, sp.Beam.Shape)
	}
	if sp.Fleet != nil {
		if sp.Kernel == "reference" {
			return fmt.Errorf("jobs: spec %q: the reference kernel runs on the host; it cannot drive a fleet", sp.Name)
		}
		if sp.Fleet.Devices < 1 || sp.Fleet.Devices > fleet.MaxDevices {
			return fmt.Errorf("jobs: spec %q: fleet.devices must be in [1, %d]", sp.Name, fleet.MaxDevices)
		}
		if sp.Fleet.Bands < 0 {
			return fmt.Errorf("jobs: spec %q: fleet.bands must be >= 0", sp.Name)
		}
	}
	if sp.Alerts != "" && sp.Alerts != "default" {
		if _, err := alert.ParseRules(sp.Alerts); err != nil {
			return fmt.Errorf("jobs: spec %q: %w", sp.Name, err)
		}
	}
	if err := sp.CoreConfig().Validate(); err != nil {
		return fmt.Errorf("jobs: spec %q: %w", sp.Name, err)
	}
	// core.Config.Validate has bounded Kappa, so this check cannot
	// overflow itself.
	if sp.Steps > math.MaxInt-3-sp.Kappa {
		return fmt.Errorf("jobs: spec %q: kappa + 3 + steps overflows the step counter", sp.Name)
	}
	return nil
}

// CoreConfig translates the spec into a core simulation configuration.
func (sp *Spec) CoreConfig() core.Config {
	return core.Config{
		Beam: phys.Beam{
			NumParticles: sp.Beam.Particles,
			TotalCharge:  sp.Beam.ChargeC,
			SigmaX:       sp.Beam.SigmaX,
			SigmaY:       sp.Beam.SigmaY,
			Energy:       sp.Beam.EnergyEV,
			Emittance:    sp.Beam.EmittanceM,
		},
		NX:          sp.Grid.NX,
		NY:          sp.Grid.NY,
		PadSigma:    sp.Grid.PadSigma,
		Kappa:       sp.Kappa,
		Tol:         sp.Tol,
		Seed:        sp.Seed,
		Rigid:       !sp.Dynamic,
		Shape:       shapeNames[sp.Beam.Shape],
		Scheme:      grid.CIC,
		HostWorkers: sp.HostWorkers,
	}
}

// TargetStep is the simulation step count a finished job has executed:
// the retardation warm-up (Kappa + 3 history grids) plus Steps full steps.
// Only meaningful on a normalized spec.
func (sp *Spec) TargetStep() int { return sp.Kappa + 3 + sp.Steps }

// BuildAlgo constructs the compute-potentials algorithm of one job attempt
// on freshly made devices. newDev builds device id (labelled and wired to
// telemetry by the caller). It returns nil for the host reference.
func (sp *Spec) BuildAlgo(newDev func(id int) *gpusim.Device) kernels.Algorithm {
	mk := kernelNames[sp.Kernel]
	if mk == nil { // host reference
		return nil
	}
	if sp.Fleet == nil {
		return mk(newDev(0))
	}
	devs := make([]*gpusim.Device, sp.Fleet.Devices)
	for d := range devs {
		devs[d] = newDev(d)
	}
	return fleet.New(fleet.Config{
		Devices:    devs,
		MakeKernel: func(id int, dev *gpusim.Device) kernels.Algorithm { return mk(dev) },
		Bands:      sp.Fleet.Bands,
	})
}

// AlertRules parses the spec's alert script ("" -> nil, "default" -> the
// built-in set). Validate has already proven it parses.
func (sp *Spec) AlertRules() []alert.Rule {
	script := sp.Alerts
	switch script {
	case "":
		return nil
	case "default":
		script = alert.DefaultRules
	}
	rules, err := alert.ParseRules(script)
	if err != nil {
		return nil
	}
	return rules
}
