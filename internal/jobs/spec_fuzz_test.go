package jobs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes to the job-spec parser, seeded with
// the scenario catalog, a small fleet spec with alerts, and inputs
// ParseSpec or Validate rejects: a fault-injection script, a lattice
// block, a step count that overflows kappa + 3 + steps, negative bands
// and a device count above fleet.MaxDevices. No input may panic, and an accepted spec's canonical
// form — the re-marshalled JSON — must parse back to an equal spec.
func FuzzParseSpec(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	const head = `{"name":"x","beam":{"particles":1,"sigma_x_m":1,"sigma_y_m":1,"energy_ev":1},"grid":{"nx":2},`
	for _, tail := range []string{
		`"steps":1,"fleet":{"devices":4,"bands":8},"alerts":"fallback_rate>0:for=1;steptime>60:sev=warn"}`,
		`"steps":1,"fleet":{"devices":4,"bands":8,"inject":"fail:dev=1,step=10,after=1"}}`,
		`"steps":1,"lattice":{"bend_radius_m":10,"bend_angle_deg":2.77}}`,
		`"steps":9223372036854775807,"kappa":4}`,
		`"steps":1,"fleet":{"devices":2,"bands":-3}}`,
		`"steps":1,"fleet":{"devices":100000000}}`,
	} {
		f.Add([]byte(head + tail))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return
		}
		canon, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %s does not parse: %v", canon, err)
		}
		if !reflect.DeepEqual(back, sp) {
			t.Fatalf("round trip changed the spec:\n  %+v\n  %+v", sp, back)
		}
	})
}
