package jobs

import (
	"path/filepath"
	"runtime"
	"testing"
)

// catalogSHA256 pins the result digest (GridDigest) of every scenario in
// the committed catalog under examples/scenarios. Every catalog job,
// fleet jobs included, must reproduce its digest on every run. Recorded
// on amd64, where Go never fuses a multiply and an add.
var catalogSHA256 = map[string]string{
	"bunch-compression": "e62d22d8c137d65676651c153846c0fb60397f53642cf44a4e5183c8b1957063",
	"halo-dominated":    "b4cb44c93dbe1714b0060aa3093370b232abc4de0b4d1fe2f36689e5dd8f9c91",
	"smooth-gaussian":   "99258b90e8393227304a4f80c391e8751d63c5c53a49a96457a1f9b2063dd772",
}

// TestScenarioCatalogDigests runs the catalog through a Server, as
// "beamsim serve -oneshot" does, and compares each result's SHA-256 with
// the committed constant. Every catalog scenario is a healthy run, so
// none may log an alert; each runs under the stock rules here, which
// leaves its digest alone (alerting never touches the physics).
func TestScenarioCatalogDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2})
	defer s.Close()
	submitted := map[string]*Job{}
	for _, path := range paths {
		sp, err := LoadSpec(path)
		if err != nil {
			t.Fatal(err)
		}
		sp.Alerts = "default"
		j, err := s.Submit(sp)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		submitted[sp.Name] = j
	}
	if len(submitted) != len(catalogSHA256) {
		t.Fatalf("catalog has %d scenarios, %d digests pinned", len(submitted), len(catalogSHA256))
	}
	for name, j := range submitted {
		st := waitDone(t, j)
		if st.State != StateDone {
			t.Fatalf("%s: state = %s (err %q)", name, st.State, st.Error)
		}
		want, ok := catalogSHA256[name]
		if !ok {
			t.Errorf("%s: no digest pinned", name)
			continue
		}
		if got := j.Result().SHA256; got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
		for _, ev := range j.Events() {
			if ev.Type == "alert" {
				t.Errorf("%s: healthy scenario logged an alert at step %d: %s", name, ev.Step, ev.Msg)
			}
		}
	}
}
