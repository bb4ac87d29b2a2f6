package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beamdyn/internal/obs"
)

func tspan(trace, id, parent, name string, step int, ts, dur float64, attrs map[string]any) obs.Event {
	return obs.Event{TS: ts, Name: name, Kind: "span", Step: step, Dur: dur,
		Trace: trace, Span: id, Parent: parent, Attrs: attrs}
}

func TestBuildTreesReconstructsHierarchy(t *testing.T) {
	events := []obs.Event{
		{TS: 0, Name: obs.MetaT0, Kind: "meta", Attrs: map[string]any{"t0": "2026-08-08T00:00:00Z"}},
		tspan("t-000001", "s-000001", "", "jobs/job", 0, 1.0, 1.0,
			map[string]any{"job": "j1"}),
		tspan("t-000001", "s-000002", "s-000001", "jobs/queue-wait", 0, 0.2, 0.2, nil),
		tspan("t-000001", "s-000003", "s-000001", "jobs/run", 1, 1.0, 0.8, nil),
		tspan("t-000001", "s-000004", "s-000003", "advance", 0, 0.5, 0.3, nil),
		tspan("t-000001", "s-000005", "s-000003", "advance", 1, 0.9, 0.4, nil),
	}
	trees := BuildTrees(events)
	if len(trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(trees))
	}
	tr := trees[0]
	if tr.TraceID != "t-000001" || tr.Job != "j1" {
		t.Fatalf("tree header = %q job=%q", tr.TraceID, tr.Job)
	}
	if tr.Spans != 5 || tr.Orphans != 0 {
		t.Fatalf("spans=%d orphans=%d, want 5/0", tr.Spans, tr.Orphans)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "jobs/job" {
		t.Fatalf("roots = %+v", tr.Roots)
	}
	root := tr.Roots[0]
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(root.Children))
	}
	// Children sorted by start: queue-wait (start 0.0) before run (start 0.2).
	if root.Children[0].Name != "jobs/queue-wait" || root.Children[1].Name != "jobs/run" {
		t.Fatalf("child order = %s, %s", root.Children[0].Name, root.Children[1].Name)
	}
	run := root.Children[1]
	if len(run.Children) != 2 {
		t.Fatalf("run children = %d, want 2", len(run.Children))
	}
	// Self = total - children: jobs/run 0.8 - (0.3+0.4) = 0.1.
	if diff := run.Self - 0.1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("run self = %v, want 0.1", run.Self)
	}
	path := CriticalPath(root)
	var names []string
	for _, n := range path {
		names = append(names, n.Name)
	}
	got := strings.Join(names, ">")
	if got != "jobs/job>jobs/run>advance" {
		t.Fatalf("critical path = %s", got)
	}
}

func TestBuildTreesPromotesOrphans(t *testing.T) {
	events := []obs.Event{
		tspan("t-000001", "s-000002", "s-000404", "advance", 0, 0.5, 0.3, nil),
		tspan("t-000001", "s-000003", "s-000002", "kernel/push", 0, 0.4, 0.1, nil),
	}
	trees := BuildTrees(events)
	if len(trees) != 1 {
		t.Fatalf("trees = %d", len(trees))
	}
	tr := trees[0]
	if tr.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", tr.Orphans)
	}
	if len(tr.Roots) != 1 || !tr.Roots[0].Orphan || tr.Roots[0].Name != "advance" {
		t.Fatalf("roots = %+v", tr.Roots)
	}
	// The orphan keeps its own subtree.
	if len(tr.Roots[0].Children) != 1 || tr.Roots[0].Children[0].Name != "kernel/push" {
		t.Fatalf("orphan subtree lost: %+v", tr.Roots[0].Children)
	}
	table := TreeTable(trees)
	if !strings.Contains(table, "ORPHANS=1") || !strings.Contains(table, "(orphan)") {
		t.Fatalf("table missing orphan markers:\n%s", table)
	}
}

func TestBuildTreesSegmentsConcatenatedStreams(t *testing.T) {
	// Two processes' traces concatenated: counter IDs collide, the second
	// t0 header must fence them into separate trees.
	header := obs.Event{Name: obs.MetaT0, Kind: "meta", Attrs: map[string]any{"t0": "2026-08-08T00:00:00Z"}}
	events := []obs.Event{
		header,
		tspan("t-000001", "s-000001", "", "run", 0, 1.0, 1.0, nil),
		header,
		tspan("t-000001", "s-000001", "", "run", 0, 2.0, 2.0, nil),
	}
	trees := BuildTrees(events)
	if len(trees) != 2 {
		t.Fatalf("trees = %d, want 2 (segments merged)", len(trees))
	}
	if trees[0].TraceID != "t-000001" || trees[1].TraceID != "t-000001#2" {
		t.Fatalf("trace IDs = %q, %q", trees[0].TraceID, trees[1].TraceID)
	}
}

func TestBuildTreesIgnoresUntracedEvents(t *testing.T) {
	events := []obs.Event{
		{TS: 1, Name: "advance", Kind: "span", Dur: 1}, // pre-span-context trace
		{TS: 1, Name: "jobs/progress", Kind: "event", Trace: "t-000001"},
	}
	if trees := BuildTrees(events); len(trees) != 0 {
		t.Fatalf("trees = %d, want 0", len(trees))
	}
}

func TestReadTraceLenientDropsTruncatedTail(t *testing.T) {
	good := `{"ts":1,"name":"advance","kind":"span","dur":0.5}`
	evs, dropped, err := ReadTraceLenient(strings.NewReader(good + "\n" + `{"ts":2,"na`))
	if err != nil {
		t.Fatalf("lenient read: %v", err)
	}
	if !dropped || len(evs) != 1 {
		t.Fatalf("dropped=%v events=%d, want true/1", dropped, len(evs))
	}

	// Corruption mid-run (good line after bad) is still a hard error.
	if _, _, err := ReadTraceLenient(strings.NewReader(`{"bad` + "\n" + good)); err == nil {
		t.Fatal("mid-run corruption not rejected")
	}

	// A fully well-formed file reports dropped=false.
	evs, dropped, err = ReadTraceLenient(strings.NewReader(good + "\n" + good))
	if err != nil || dropped || len(evs) != 2 {
		t.Fatalf("clean read: evs=%d dropped=%v err=%v", len(evs), dropped, err)
	}
}

func TestReadTraceFileLenient(t *testing.T) {
	p := filepath.Join(t.TempDir(), "trace.jsonl")
	data := `{"ts":1,"name":"advance","kind":"span","dur":0.5}` + "\n" + `{"trunc`
	if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	evs, dropped, err := ReadTraceFileLenient(p)
	if err != nil || !dropped || len(evs) != 1 {
		t.Fatalf("evs=%d dropped=%v err=%v", len(evs), dropped, err)
	}
}

func TestFilterJobKeepsMetaAndMatches(t *testing.T) {
	events := []obs.Event{
		{Name: obs.MetaT0, Kind: "meta", Attrs: map[string]any{"t0": "2026-08-08T00:00:00Z"}},
		tspan("t-000001", "s-000001", "", "jobs/job", 0, 1, 1, map[string]any{"job": "a"}),
		tspan("t-000002", "s-000002", "", "jobs/job", 0, 1, 1, map[string]any{"job": "b"}),
		{TS: 1, Name: "jobs/progress", Kind: "event", Attrs: map[string]any{"job": "a"}},
	}
	got := FilterJob(events, "a")
	if len(got) != 3 {
		t.Fatalf("filtered = %d, want 3 (meta + 2 job-a)", len(got))
	}
	for _, e := range got[1:] {
		if j, _ := attrString(e, "job"); j != "a" {
			t.Fatalf("leaked event %+v", e)
		}
	}
}

func TestTraceT0ReadsFirstHeader(t *testing.T) {
	h := func(t0 string) obs.Event {
		return obs.Event{Name: obs.MetaT0, Kind: "meta", Attrs: map[string]any{"t0": t0}}
	}
	events := []obs.Event{
		h("2026-08-08T00:00:05Z"),
		{TS: 1.0, Name: "a", Kind: "span"},
		h("2026-08-08T00:00:00Z"),
		{TS: 1.0, Name: "b", Kind: "span"},
	}
	if t0, ok := TraceT0(events); !ok || t0 != "2026-08-08T00:00:05Z" {
		t.Fatalf("TraceT0 = %q ok=%v", t0, ok)
	}
	plain := []obs.Event{{TS: 3.0, Name: "x", Kind: "span"}}
	if _, ok := TraceT0(plain); ok {
		t.Fatal("TraceT0 on headerless stream should report !ok")
	}
}
