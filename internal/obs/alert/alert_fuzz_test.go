package alert

import "testing"

// FuzzParseRules feeds arbitrary scripts to the alert-rule parser, seeded
// with the default set, the scripts the Makefile and README run,
// non-finite numbers, and a "mad=" option and a removed device signal the
// grammar rejects. No input may
// panic, and every accepted rule's canonical form (Rule.Name) must parse
// back to an equal rule.
func FuzzParseRules(f *testing.F) {
	for _, s := range []string{
		DefaultRules,
		"fallback_rate>0:for=1;steptime>60:sev=warn",
		"fallback_rate>0.2:for=5;steptime>2;charge_drift>0.01",
		"err_max>=8:sev=warn",
		"charge_drift<=1e-3:for=2,sev=crit",
		"fallback_rate>NaN",
		"steptime:mad=8",
		"err_p90<-Inf:for=2",
		"device_failed:for=1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rules, err := ParseRules(s)
		if err != nil {
			return
		}
		for _, r := range rules {
			again, err := ParseRules(r.Name())
			if err != nil {
				t.Fatalf("canonical form %q of %q does not parse: %v", r.Name(), s, err)
			}
			if len(again) != 1 || again[0] != r {
				t.Fatalf("round trip of %q changed rule %+v to %+v", s, r, again)
			}
		}
	})
}
