package jobs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes to the job-spec parser, seeded with
// the scenario catalog. No input may panic, and an accepted spec's
// canonical form — the re-marshalled JSON — must parse back to an equal
// spec.
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
	f.Add([]byte(`{"name":"x","beam":{"particles":1,"sigma_x_m":1,"sigma_y_m":1,"energy_ev":1},"grid":{"nx":2},"steps":1,` +
		`"fleet":{"devices":4,"bands":8,"inject":"fail:dev=1,step=10,after=1"},"alerts":"device_failed:for=1;steptime>60:sev=warn"}`))
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
