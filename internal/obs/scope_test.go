package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestScopeDerivationNoOpsWhenTracingDisabled(t *testing.T) {
	var nilObs *Observer
	if nilObs.StartTrace() != nil || nilObs.WithBaggage(S("k", "v")) != nil {
		t.Fatal("nil observer derivation must return nil")
	}
	if nilObs.Scope() != nil {
		t.Fatal("nil observer Scope must return nil")
	}

	// Registry-only observer: tracing off, derivation must return the
	// receiver itself — no copy, no scope, zero allocation on the hot path.
	ro := &Observer{Reg: NewRegistry()}
	if got := ro.StartTrace(S("job", "j1")); got != ro {
		t.Fatal("StartTrace with tracing off must return the receiver")
	}
	if got := ro.WithBaggage(S("job", "j1")); got != ro {
		t.Fatal("WithBaggage with tracing off must return the receiver")
	}
	sp := ro.Span("advance", 1)
	if trace, id := sp.IDs(); trace != "" || id != "" {
		t.Fatalf("untraced span has IDs %q/%q", trace, id)
	}
	if got := sp.Scope(); got != ro {
		t.Fatal("Scope of an ID-less span must return the creating observer")
	}
	sp.End()
}

func TestScopedSpansShareTraceAndParentCorrectly(t *testing.T) {
	ms := &memSink{}
	o := &Observer{Trace: NewTracer(ms)}

	root := o.StartTrace(S("job", "j1"), S("tenant", "acme"))
	rootSpan := root.Span("jobs/job", 0)
	ro := rootSpan.Scope()
	child := ro.Span("jobs/run", 1)
	grand := child.Scope().Span("advance", 1)
	grand.End()
	child.End(S("outcome", "done"))
	ro.Event("jobs/progress", 2, I("of", 10))
	rootSpan.End()

	evs := ms.Events()
	if len(evs) != 5 { // t0 header + 3 spans + 1 event
		t.Fatalf("events = %d, want 5", len(evs))
	}
	if evs[0].Name != MetaT0 {
		t.Fatalf("first record = %q, want t0 header", evs[0].Name)
	}
	byName := map[string]Event{}
	for _, e := range evs[1:] {
		byName[e.Name] = e
	}
	rootE, runE, advE, progE := byName["jobs/job"], byName["jobs/run"], byName["advance"], byName["jobs/progress"]

	if rootE.Trace == "" || rootE.Span == "" || rootE.Parent != "" {
		t.Fatalf("root IDs: %+v", rootE)
	}
	if runE.Trace != rootE.Trace || runE.Parent != rootE.Span {
		t.Fatalf("run not parented under root: %+v vs %+v", runE, rootE)
	}
	if advE.Trace != rootE.Trace || advE.Parent != runE.Span {
		t.Fatalf("advance not parented under run: %+v", advE)
	}
	if progE.Trace != rootE.Trace || progE.Parent != rootE.Span || progE.Span != "" {
		t.Fatalf("event context wrong: %+v", progE)
	}
	// Baggage rides on every descendant record.
	for _, e := range []Event{rootE, runE, advE, progE} {
		if e.Attrs["job"] != "j1" || e.Attrs["tenant"] != "acme" {
			t.Fatalf("baggage missing on %s: %v", e.Name, e.Attrs)
		}
	}
	// Explicit attrs survive alongside baggage.
	if runE.Attrs["outcome"] != "done" {
		t.Fatalf("explicit attr lost: %v", runE.Attrs)
	}
}

func TestWithBaggageAppendsWithoutMutatingParent(t *testing.T) {
	ms := &memSink{}
	o := (&Observer{Trace: NewTracer(ms)}).StartTrace(S("job", "j1"))
	d := o.WithBaggage(I("attempt", 2))
	d.Event("a", 0)
	o.Event("b", 0)
	evs := ms.Events()
	a, b := evs[1], evs[2]
	if a.Attrs["job"] != "j1" || a.Attrs["attempt"] != 2 {
		t.Fatalf("derived baggage: %v", a.Attrs)
	}
	if _, leaked := b.Attrs["attempt"]; leaked {
		t.Fatalf("parent scope mutated: %v", b.Attrs)
	}
}

func TestUnscopedSpanRootsFreshTrace(t *testing.T) {
	ms := &memSink{}
	o := &Observer{Trace: NewTracer(ms)}
	s1 := o.Span("a", 0)
	s1.End()
	s2 := o.Span("b", 0)
	s2.End()
	evs := ms.Events()[1:]
	if evs[0].Trace == "" || evs[0].Trace == evs[1].Trace {
		t.Fatalf("unscoped spans must root distinct traces: %q vs %q", evs[0].Trace, evs[1].Trace)
	}
	if evs[0].Parent != "" || evs[1].Parent != "" {
		t.Fatal("unscoped spans must be parentless")
	}
}

func TestSpanIDsUniqueAcrossConcurrentWorkers(t *testing.T) {
	ms := &memSink{}
	o := &Observer{Trace: NewTracer(ms)}
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := o.StartTrace(S("job", fmt.Sprintf("j%d", w)))
			for i := 0; i < per; i++ {
				sp := sc.Span("advance", i)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	seenSpan := map[string]bool{}
	seenTrace := map[string]bool{}
	spans := 0
	for _, e := range ms.Events() {
		if e.Kind != "span" {
			continue
		}
		spans++
		if seenSpan[e.Span] {
			t.Fatalf("duplicate span ID %q", e.Span)
		}
		seenSpan[e.Span] = true
		seenTrace[e.Trace] = true
	}
	if spans != workers*per {
		t.Fatalf("spans = %d, want %d", spans, workers*per)
	}
	if len(seenTrace) != workers {
		t.Fatalf("traces = %d, want %d", len(seenTrace), workers)
	}
}
