package analysis

import (
	"fmt"
	"sort"
	"strings"

	"beamdyn/internal/obs"
)

// SpanNode is one span in a reconstructed causal tree. Total is the span's
// own duration; Self is Total minus the time covered by its children
// (clamped at zero — concurrent children, fleet bands say, can sum past
// the parent's wall time).
type SpanNode struct {
	Name     string
	ID       string
	Parent   string
	Step     int
	Start    float64 // seconds, span start (TS - Dur; spans stamp at End)
	Total    float64
	Self     float64
	Attrs    map[string]any
	Children []*SpanNode
	// Orphan marks a span whose parent ID never appeared in the stream
	// (the parent span was never ended — a crashed run, a truncated file);
	// orphans surface as extra roots so their subtrees stay visible.
	Orphan bool
}

// TraceTree is one trace's reconstructed span forest.
type TraceTree struct {
	TraceID string
	// Job is the job baggage attr of the roots, when present.
	Job   string
	Roots []*SpanNode
	// Spans counts every span in the trace; Orphans counts parent-less
	// non-root spans promoted to roots.
	Spans   int
	Orphans int
}

// BuildTrees reconstructs the span forest of every trace in the stream
// from the events' trace/span/parent IDs. Point events and meta records
// are ignored; spans without IDs (traces from before span context) yield
// no trees. Trees are returned in order of first appearance; within a
// node, children sort by start time.
func BuildTrees(events []obs.Event) []*TraceTree {
	// Counter IDs are only unique per tracer, so a concatenated
	// multi-process stream would collide both trace and span IDs. Each t0
	// header after the first starts a new segment; IDs are scoped to their
	// segment, and later segments' trace IDs display with a "#N" suffix.
	segKey := func(seg int, id string) string {
		if seg <= 1 {
			return id
		}
		return fmt.Sprintf("%s#%d", id, seg)
	}

	byTrace := make(map[string]*TraceTree)
	var order []string
	nodes := make(map[string]*SpanNode) // segment-scoped span ID -> node
	segs := make([]int, len(events))
	seg := 1
	seenAny := false
	for i, e := range events {
		if e.Kind == "meta" && e.Name == obs.MetaT0 {
			if seenAny {
				seg++
			}
			seenAny = true
		}
		segs[i] = seg
	}

	for i, e := range events {
		if e.Kind != "span" || e.Span == "" || e.Trace == "" {
			continue
		}
		traceKey := segKey(segs[i], e.Trace)
		t, ok := byTrace[traceKey]
		if !ok {
			t = &TraceTree{TraceID: traceKey}
			byTrace[traceKey] = t
			order = append(order, traceKey)
		}
		n := &SpanNode{
			Name:   e.Name,
			ID:     e.Span,
			Parent: e.Parent,
			Step:   e.Step,
			Start:  e.TS - e.Dur,
			Total:  e.Dur,
			Attrs:  e.Attrs,
		}
		nodes[segKey(segs[i], e.Span)] = n
		t.Spans++
		if t.Job == "" {
			if j, ok := attrString(e, "job"); ok {
				t.Job = j
			}
		}
	}

	// Attach children; spans whose parent never landed become orphan roots.
	for i, e := range events {
		if e.Kind != "span" || e.Span == "" || e.Trace == "" {
			continue
		}
		n := nodes[segKey(segs[i], e.Span)]
		t := byTrace[segKey(segs[i], e.Trace)]
		if n.Parent == "" {
			t.Roots = append(t.Roots, n)
			continue
		}
		if p, ok := nodes[segKey(segs[i], n.Parent)]; ok {
			p.Children = append(p.Children, n)
			continue
		}
		n.Orphan = true
		t.Orphans++
		t.Roots = append(t.Roots, n)
	}

	for _, n := range nodes {
		sort.SliceStable(n.Children, func(i, j int) bool { return n.Children[i].Start < n.Children[j].Start })
	}
	out := make([]*TraceTree, 0, len(order))
	for _, id := range order {
		t := byTrace[id]
		sort.SliceStable(t.Roots, func(i, j int) bool { return t.Roots[i].Start < t.Roots[j].Start })
		for _, r := range t.Roots {
			computeSelf(r)
		}
		out = append(out, t)
	}
	return out
}

func computeSelf(n *SpanNode) {
	child := 0.0
	for _, c := range n.Children {
		computeSelf(c)
		child += c.Total
	}
	n.Self = n.Total - child
	if n.Self < 0 {
		n.Self = 0
	}
}

// CriticalPath returns the chain of spans from root following, at each
// level, the child with the largest total time — the dominant cost path
// of the tree.
func CriticalPath(root *SpanNode) []*SpanNode {
	path := []*SpanNode{root}
	for n := root; len(n.Children) > 0; {
		best := n.Children[0]
		for _, c := range n.Children[1:] {
			if c.Total > best.Total {
				best = c
			}
		}
		path = append(path, best)
		n = best
	}
	return path
}

// treeGroup is one collapsed display row: siblings with the same name
// aggregated (count, summed total/self, max single total).
type treeGroup struct {
	name     string
	count    int
	total    float64
	self     float64
	maxTotal float64
	orphan   bool
	children []*treeGroup
}

func groupChildren(nodes []*SpanNode) []*treeGroup {
	byName := make(map[string]*treeGroup)
	var order []*treeGroup
	for _, n := range nodes {
		g, ok := byName[n.Name]
		if !ok {
			g = &treeGroup{name: n.Name}
			byName[n.Name] = g
			order = append(order, g)
		}
		g.count++
		g.total += n.Total
		g.self += n.Self
		if n.Total > g.maxTotal {
			g.maxTotal = n.Total
		}
		g.orphan = g.orphan || n.Orphan
	}
	for _, g := range order {
		var kids []*SpanNode
		for _, n := range nodes {
			if n.Name == g.name {
				kids = append(kids, n.Children...)
			}
		}
		if len(kids) > 0 {
			g.children = groupChildren(kids)
		}
	}
	return order
}

// TreeTable renders the trace forest: per trace, the span tree collapsed
// by name at each depth (count, total, self, worst single span), followed
// by the deepest root's critical path. Durations in milliseconds.
func TreeTable(trees []*TraceTree) string {
	var b strings.Builder
	for ti, t := range trees {
		if ti > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "trace %s", t.TraceID)
		if t.Job != "" {
			fmt.Fprintf(&b, "  job=%s", t.Job)
		}
		fmt.Fprintf(&b, "  spans=%d", t.Spans)
		if t.Orphans > 0 {
			fmt.Fprintf(&b, "  ORPHANS=%d", t.Orphans)
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "  %-44s %6s %12s %12s %12s\n", "span", "count", "total ms", "self ms", "max ms")
		groups := groupChildren(t.Roots)
		for _, g := range groups {
			writeGroup(&b, g, 0)
		}
		// Critical path of the longest root.
		var longest *SpanNode
		for _, r := range t.Roots {
			if longest == nil || r.Total > longest.Total {
				longest = r
			}
		}
		if longest != nil {
			b.WriteString("  critical path:\n")
			for i, n := range CriticalPath(longest) {
				fmt.Fprintf(&b, "    %s%-*s %10.3fms  (self %.3fms, step %d)\n",
					strings.Repeat("  ", i), 40-2*i, n.Name, n.Total*1e3, n.Self*1e3, n.Step)
			}
		}
	}
	return b.String()
}

func writeGroup(b *strings.Builder, g *treeGroup, depth int) {
	name := strings.Repeat("  ", depth) + g.name
	if g.orphan {
		name += " (orphan)"
	}
	fmt.Fprintf(b, "  %-44s %6d %12.3f %12.3f %12.3f\n",
		name, g.count, g.total*1e3, g.self*1e3, g.maxTotal*1e3)
	for _, c := range g.children {
		writeGroup(b, c, depth+1)
	}
}
