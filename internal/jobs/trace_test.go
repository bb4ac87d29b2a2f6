package jobs

import (
	"testing"

	"beamdyn/internal/obs"
	"beamdyn/internal/obs/analysis"
	"beamdyn/internal/obs/flight"
)

// referenceSpec runs the host reference solver so the trace carries
// reference/solve spans.
func referenceSpec(name string) Spec {
	sp := smallSpec(name)
	sp.Kernel = "reference"
	sp.Steps = 1
	return sp
}

// collectNames flattens a span subtree into a name -> count map.
func collectNames(n *analysis.SpanNode, into map[string]int) {
	into[n.Name]++
	for _, c := range n.Children {
		collectNames(c, into)
	}
}

// TestJobTraceTreeEndToEnd is the tracing acceptance test: multiple jobs
// run concurrently through the control plane with tracing on, and each
// job's full causal tree — queue-wait, run, per-step advance with kernel
// sub-phases, fleet bands, reference solves — reconstructs from the one
// JSONL stream with no orphaned spans, while the physics stays bitwise
// identical to an untraced run.
func TestJobTraceTreeEndToEnd(t *testing.T) {
	ms := flight.New(0, nil)
	observer := obs.New()
	observer.Trace = obs.NewTracer(ms)
	s := New(Config{Workers: 2, Obs: observer, Node: "test-node"})

	specs := []Spec{smallSpec("kernel-job"), fleetSpec("fleet-job"), referenceSpec("ref-job")}
	jobsByID := map[string]string{} // id -> spec name
	var submitted []*Job
	for _, sp := range specs {
		j, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		jobsByID[j.ID] = sp.Name
		submitted = append(submitted, j)
	}
	shas := map[string]string{}
	for _, j := range submitted {
		st := waitDone(t, j)
		if st.State != StateDone {
			t.Fatalf("%s: state = %s (err %q)", st.Name, st.State, st.Error)
		}
		if st.TraceID == "" {
			t.Fatalf("%s: status carries no trace ID", st.Name)
		}
		shas[st.Name] = j.Result().SHA256
	}
	s.Close()

	events := ms.Events()
	trees := analysis.BuildTrees(events)
	if len(trees) != len(specs) {
		t.Fatalf("trees = %d, want %d (one per job)", len(trees), len(specs))
	}
	wantByName := map[string][]string{
		"kernel-job": {"jobs/queue-wait", "jobs/run", "advance", "advance/potentials", "twophase/uniform"},
		"fleet-job":  {"jobs/queue-wait", "jobs/run", "advance", "fleet/step", "fleet/band"},
		"ref-job":    {"jobs/queue-wait", "jobs/run", "advance", "reference/solve"},
	}
	seen := map[string]bool{}
	for _, tr := range trees {
		name, ok := jobsByID[tr.Job]
		if !ok {
			t.Fatalf("tree for unknown job %q", tr.Job)
		}
		seen[name] = true
		if tr.Orphans != 0 {
			t.Errorf("%s: %d orphaned spans:\n%s", name, tr.Orphans, analysis.TreeTable([]*analysis.TraceTree{tr}))
		}
		if len(tr.Roots) != 1 || tr.Roots[0].Name != "jobs/job" {
			t.Fatalf("%s: roots = %d (first %q), want single jobs/job root", name, len(tr.Roots), tr.Roots[0].Name)
		}
		names := map[string]int{}
		collectNames(tr.Roots[0], names)
		for _, want := range wantByName[name] {
			if names[want] == 0 {
				t.Errorf("%s: span %q missing from tree (have %v)", name, want, names)
			}
		}
		// Every span in the job's trace descends from the root: the tree
		// accounts for all of them.
		total := 0
		for _, c := range names {
			total += c
		}
		if total != tr.Spans {
			t.Errorf("%s: tree covers %d of %d spans", name, total, tr.Spans)
		}
	}
	for name := range wantByName {
		if !seen[name] {
			t.Errorf("no tree found for %s", name)
		}
	}

	// Baggage: every traced record of a job's tree carries job/node.
	for _, e := range events {
		if e.Kind == "meta" || e.Trace == "" {
			continue
		}
		if e.Attrs["job"] == nil || e.Attrs["node"] != "test-node" {
			t.Fatalf("record %q missing baggage: %v", e.Name, e.Attrs)
		}
	}

	// Bitwise identity: the same specs run untraced produce the same grids.
	plain := New(Config{Workers: 2})
	for _, sp := range specs {
		j, err := plain.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		st := waitDone(t, j)
		if st.State != StateDone {
			t.Fatalf("untraced %s: state = %s", st.Name, st.State)
		}
		if got := j.Result().SHA256; got != shas[st.Name] {
			t.Errorf("%s: traced sha %s != untraced sha %s — tracing touched the physics", st.Name, shas[st.Name], got)
		}
	}
	plain.Close()
}

// TestEventAllocFreeWhenTracingDisabled pins the jobs event fast path:
// with no trace sink attached, emitting a per-step control-plane event
// allocates nothing: the scope's baggage supplies the job attrs only
// when tracing is on.
func TestEventAllocFreeWhenTracingDisabled(t *testing.T) {
	s := New(Config{Workers: 1, Obs: obs.New()}) // registry only, no tracer
	defer s.Close()
	j, err := s.Submit(smallSpec("alloc"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if n := testing.AllocsPerRun(1000, func() {
		s.event(j, "jobs/progress", 1)
	}); n != 0 {
		t.Fatalf("disabled-path event allocates %.0f times per call, want 0", n)
	}
}
