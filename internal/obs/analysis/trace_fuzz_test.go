package analysis

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"beamdyn/internal/obs"
)

// FuzzReadTrace feeds arbitrary bytes to both trace readers, seeded with a
// short trace written by obs.JSONLSink plus copies with a truncated tail
// and with a corrupt middle line. Neither reader may panic; ReadTrace must
// accept an input exactly when ReadTraceLenient accepts it without
// dropping a tail line, and then both must return equal events; and
// accepted events, re-encoded as JSON lines, must read back equal.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	o := &obs.Observer{Trace: obs.NewTracer(sink)}
	root := o.StartTrace(obs.S("job", "j1"))
	sp := root.Span("advance", 1)
	sp.Scope().Event("fleet/device", 1, obs.I("device", 0), obs.S("state", "failed"))
	sp.End(obs.F("sim_sec", 2.5e-3))
	root.Span("advance", 2).End()
	if err := sink.Close(); err != nil {
		f.Fatal(err)
	}
	trace := buf.String()
	lines := strings.SplitAfter(strings.TrimSuffix(trace, "\n"), "\n")
	f.Add([]byte(trace))
	f.Add([]byte(trace[:len(trace)-7]))
	f.Add([]byte(strings.Join(lines[:2], "") + `{"ts":1,"na` + "\n" + strings.Join(lines[2:], "")))

	f.Fuzz(func(t *testing.T, data []byte) {
		strict, serr := ReadTrace(bytes.NewReader(data))
		lenient, dropped, lerr := ReadTraceLenient(bytes.NewReader(data))
		if (serr == nil) != (lerr == nil && !dropped) {
			t.Fatalf("ReadTrace err %v, ReadTraceLenient err %v dropped %v", serr, lerr, dropped)
		}
		if serr == nil && !reflect.DeepEqual(strict, lenient) {
			t.Fatalf("readers disagree:\n  strict  %+v\n  lenient %+v", strict, lenient)
		}
		if lerr != nil {
			return
		}
		var out bytes.Buffer
		sink := obs.NewJSONLSink(&out)
		for _, e := range lenient {
			if err := sink.Emit(e); err != nil {
				t.Fatalf("accepted event %+v does not encode: %v", e, err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-encoded trace does not read back: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back, lenient) {
			t.Fatalf("round trip changed the events:\n  %+v\n  %+v", lenient, back)
		}
	})
}
