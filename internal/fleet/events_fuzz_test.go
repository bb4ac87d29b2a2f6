package fleet

import "testing"

// FuzzParseEvents feeds arbitrary scripts to the health-event parser,
// seeded with the scripts the Makefile and README inject and with
// non-finite factors. No input may
// panic, and every accepted event's canonical form (Event.String) must
// parse back to an equal event.
func FuzzParseEvents(f *testing.F) {
	for _, s := range []string{
		"fail:dev=1,step=10,after=1",
		"fail:dev=1,step=10,after=1;slow:dev=2,step=9,factor=3",
		"fail:dev=1,step=9",
		"fail:dev=1,step=11,after=2;slow:dev=2,step=10,factor=3,until=12",
		"fail:dev=1,step=11,after=1;slow:dev=2,step=10,factor=3,until=12",
		"drain:dev=0,step=4;recover:dev=0,step=6",
		"slow:dev=0,step=1,factor=NaN",
		"slow:dev=0,step=1,factor=+Inf,until=3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		events, err := ParseEvents(s)
		if err != nil {
			return
		}
		for _, e := range events {
			again, err := ParseEvents(e.String())
			if err != nil {
				t.Fatalf("canonical form %q of %q does not parse: %v", e.String(), s, err)
			}
			if len(again) != 1 || again[0] != e {
				t.Fatalf("round trip of %q changed event %+v to %+v", s, e, again)
			}
		}
	})
}
