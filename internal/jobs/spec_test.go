package jobs

import (
	"encoding/json"
	"math"
	"math/bits"
	"path/filepath"
	"strings"
	"testing"

	"beamdyn/internal/core"
)

// minimalSpec returns a valid small spec for mutation in tests.
func minimalSpec() string {
	return `{
		"name": "t",
		"beam": {"particles": 1000, "charge_c": 1e-9, "sigma_x_m": 1e-4, "sigma_y_m": 5e-5, "energy_ev": 4.3e9},
		"grid": {"nx": 16},
		"steps": 2,
		"kernel": "twophase",
		"kappa": 4
	}`
}

func TestParseSpecDefaults(t *testing.T) {
	sp, err := ParseSpec([]byte(minimalSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Grid.NY != 16 {
		t.Errorf("ny = %d, want nx (16)", sp.Grid.NY)
	}
	if sp.Grid.PadSigma != 5 || sp.Tol != 1e-8 || sp.Seed != 1 {
		t.Errorf("defaults not filled: pad=%g tol=%g seed=%d", sp.Grid.PadSigma, sp.Tol, sp.Seed)
	}
	if sp.Beam.Shape != "gaussian" {
		t.Errorf("shape = %q, want gaussian", sp.Beam.Shape)
	}
	if got := sp.TargetStep(); got != 4+3+2 {
		t.Errorf("TargetStep = %d, want 9", got)
	}
}

// TestParseSpecRejectsUnknownFields: a key the spec does not define is
// an error, a typo, a scheduling key and a fault script alike.
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	for _, field := range []string{`"stpes": 3`, `"tenant": "a"`, `"priority": 1`, `"deadline_sec": 5`,
		`"fleet": {"devices": 2, "inject": "fail:dev=1,step=9"}`,
		`"lattice": {"bend_radius_m": 10.0, "bend_angle_deg": 2.77}`} {
		bad := strings.Replace(minimalSpec(), `"steps": 2,`, `"steps": 2, `+field+`,`, 1)
		if _, err := ParseSpec([]byte(bad)); err == nil {
			t.Errorf("unknown field %s accepted", field)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"bad name", func(sp *Spec) { sp.Name = "Has Spaces" }, "[a-z0-9-]"},
		{"empty name", func(sp *Spec) { sp.Name = "" }, "missing name"},
		{"steps", func(sp *Spec) { sp.Steps = 0 }, "steps"},
		{"steps overflow the step counter", func(sp *Spec) { sp.Steps = math.MaxInt }, "overflows"},
		{"grid", func(sp *Spec) { sp.Grid.NX, sp.Grid.NY = 1, 1 }, "too small"},
		{"grid cells wrap int", func(sp *Spec) { sp.Grid.NX = 1 << (bits.UintSize / 2) }, "has more than 16777216 cells"},
		{"grid cells above the bound", func(sp *Spec) { sp.Grid.NX, sp.Grid.NY = 4097, 4096 }, "4097x4096 has more than"},
		{"particles", func(sp *Spec) { sp.Beam.Particles = 0 }, "particles"},
		{"kernel", func(sp *Spec) { sp.Kernel = "quantum" }, "unknown kernel"},
		{"shape", func(sp *Spec) { sp.Beam.Shape = "banana" }, "unknown beam shape"},
		{"negative kappa", func(sp *Spec) { sp.Kappa = -1 }, "kappa -1 outside"},
		{"kappa above the bound", func(sp *Spec) { sp.Kappa = core.MaxKappa + 1 }, "outside [1, 1024]"},
		{"history above the memory bound", func(sp *Spec) {
			sp.Grid.NX, sp.Grid.NY, sp.Kappa = 4096, 4096, core.MaxKappa
		}, "more than the 8 GiB bound"},
		{"particles above the memory bound", func(sp *Spec) { sp.Beam.Particles = 1 << 28 }, "more than the 8 GiB bound"},
		{"negative tol", func(sp *Spec) { sp.Tol = -1e-8 }, "tol is -1e-08"},
		{"negative pad sigma", func(sp *Spec) { sp.Grid.PadSigma = -5 }, "pad sigma is -5"},
		{"reference fleet", func(sp *Spec) {
			sp.Kernel = "reference"
			sp.Fleet = &FleetSpec{Devices: 2, Bands: 4}
		}, "cannot drive a fleet"},
		{"negative bands", func(sp *Spec) {
			sp.Fleet = &FleetSpec{Devices: 2, Bands: -3}
		}, "fleet.bands must be >= 0"},
		{"devices above the bound", func(sp *Spec) {
			sp.Fleet = &FleetSpec{Devices: 100000000}
		}, "fleet.devices must be in [1, 64]"},
		{"bad alerts", func(sp *Spec) { sp.Alerts = "nonsense>1" }, "unknown signal"},
		{"mad alerts", func(sp *Spec) { sp.Alerts = "steptime:mad=8" }, `unknown option "mad"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := ParseSpec([]byte(minimalSpec()))
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(&sp)
			sp.Normalize()
			err = sp.Validate()
			if err == nil {
				t.Fatalf("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateAccepts lists specs Validate must accept: a multi-device
// fleet may leave its bands unset (one band per device).
func TestValidateAccepts(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"multi-device without bands", func(sp *Spec) {
			sp.Fleet = &FleetSpec{Devices: 2}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := ParseSpec([]byte(minimalSpec()))
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(&sp)
			sp.Normalize()
			if err := sp.Validate(); err != nil {
				t.Fatalf("valid spec rejected: %v", err)
			}
		})
	}
}

// TestScenarioCatalogRoundTrip loads every spec of the committed scenario
// catalog and proves the round-trip contract: a normalized spec marshals
// and re-parses to an identical spec.
func TestScenarioCatalogRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("scenario catalog has %d specs, want >= 3", len(paths))
	}
	seen := map[string]bool{}
	for _, path := range paths {
		sp, err := LoadSpec(path)
		if err != nil {
			t.Fatalf("catalog spec rejected: %v", err)
		}
		base := strings.TrimSuffix(filepath.Base(path), ".json")
		if sp.Name != base {
			t.Errorf("%s: name %q does not match the file name", path, sp.Name)
		}
		if seen[sp.Name] {
			t.Errorf("duplicate scenario name %q", sp.Name)
		}
		seen[sp.Name] = true

		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: re-parse of marshaled spec failed: %v", path, err)
		}
		a, _ := json.Marshal(sp)
		b, _ := json.Marshal(back)
		if string(a) != string(b) {
			t.Errorf("%s: round trip changed the spec:\n  %s\n  %s", path, a, b)
		}
		// CI runs these for real (make test-jobs-race): keep them small.
		if sp.Beam.Particles > 50000 || sp.Grid.NX > 64 || sp.Steps > 8 {
			t.Errorf("%s: scenario too large for CI (n=%d grid=%d steps=%d)",
				path, sp.Beam.Particles, sp.Grid.NX, sp.Steps)
		}
	}
	for _, want := range []string{"smooth-gaussian", "halo-dominated", "bunch-compression"} {
		if !seen[want] {
			t.Errorf("catalog is missing the %q scenario", want)
		}
	}
}

func TestCoreConfigTranslation(t *testing.T) {
	sp, err := LoadSpec("../../examples/scenarios/bunch-compression.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sp.CoreConfig()
	if cfg.Rigid {
		t.Error("dynamic spec produced a rigid config")
	}
	if cfg.Beam.NumParticles != sp.Beam.Particles || cfg.NX != sp.Grid.NX {
		t.Errorf("config does not mirror the spec: n=%d nx=%d", cfg.Beam.NumParticles, cfg.NX)
	}
	if cfg.Beam.Emittance != sp.Beam.EmittanceM {
		t.Errorf("beam emittance = %g, want the spec's %g", cfg.Beam.Emittance, sp.Beam.EmittanceM)
	}
}
