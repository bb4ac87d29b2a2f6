// Command obstool analyzes the JSONL span traces beamsim -trace writes
// and the post-mortem bundles beamsim -postmortem-dir dumps.
//
// Subcommands:
//
//	obstool summary trace.jsonl
//	    Per-span aggregation: count, total, mean, p50/p95/p99 (exact
//	    nearest-rank quantiles of the observed durations), max. When
//	    the trace carries host reference solves, appends the rp solver
//	    cache section (tile-scratch and radial-memo reuse rates).
//
//	obstool fleet trace.jsonl
//	    Fleet accounting: steps and bands dispatched, and per-device
//	    busy time and mean utilization, from the fleet/device point
//	    events (tree skips point events).
//
//	obstool tree trace.jsonl [-job ID]
//	    Causal span-tree reconstruction from trace/span/parent IDs: per
//	    trace, the span hierarchy collapsed by name at each depth with
//	    self/total time, orphan detection, and the critical path of the
//	    longest root. Reads leniently — a truncated final line (a run
//	    killed mid-write) is dropped with a warning instead of failing.
//	    With -job, keeps only the spans carrying that job's baggage.
//
//	obstool predictor trace.jsonl [-spike-factor 3] [-min-rate 0.001]
//	    Predictor-quality series with fallback-spike detection, plus the
//	    rp solver cache section when the trace carries reference solves.
//
//	obstool diff old.jsonl new.jsonl [-max-regress 10%]
//	    Compare two runs per span name. With -max-regress, exit 1 when
//	    any shared span's mean regressed beyond the threshold.
//
//	obstool postmortem bundle-dir
//	    Triage summary of a post-mortem bundle dumped by beamsim
//	    -postmortem-dir: the dump reason and trigger alert, the alert
//	    firing log, and the flight-recorder trace's per-span aggregation.
//
// Exit codes: 0 ok, 1 span regression (diff) or fallback spike (predictor)
// detected, 2 usage or input error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"beamdyn/internal/obs"
	"beamdyn/internal/obs/analysis"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: obstool <command> [flags] <args>

commands:
  summary   trace.jsonl                  per-span aggregation (count, mean, p50/p95/p99, max)
  fleet     trace.jsonl                  per-device busy time and utilization
  tree      trace.jsonl                  causal span tree with self/total time and critical path
  predictor trace.jsonl                  predictor quality series + fallback spike detection
  diff      old.jsonl new.jsonl          compare two runs per span name
  postmortem bundle-dir                  triage summary of a post-mortem bundle

"-" reads a trace from stdin. Run "obstool <command> -h" for flags.
`)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "summary":
		runSummary(args)
	case "fleet":
		runFleet(args)
	case "tree":
		runTree(args)
	case "predictor":
		runPredictor(args)
	case "diff":
		runDiff(args)
	case "postmortem":
		runPostmortem(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "obstool: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "obstool: %v\n", err)
	os.Exit(2)
}

// parseRegress accepts "10%", "0.1" or "10" (percent implied when >= 1).
func parseRegress(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad regression threshold %q (want e.g. 10%% or 0.1)", s)
	}
	if pct || v >= 1 {
		v /= 100
	}
	return v, nil
}

func newFlagSet(name, positional string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: obstool %s [flags] %s\nflags:\n", name, positional)
		fs.PrintDefaults()
	}
	return fs
}

// parseMixed parses the flag set allowing flags before or after the n
// positional arguments (the stdlib flag package stops at the first
// positional, which would reject "obstool diff old.jsonl new.jsonl
// -max-regress 10%").
func parseMixed(fs *flag.FlagSet, args []string, n int) []string {
	var pos []string
	for {
		fs.Parse(args)
		args = fs.Args()
		if len(args) == 0 {
			break
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
	if len(pos) != n {
		fs.Usage()
		os.Exit(2)
	}
	return pos
}

// jobFlag registers the shared -job filter: keep only events carrying
// that job ID's baggage attr (control-plane traces stamp one on every
// descendant event of the job's trace).
func jobFlag(fs *flag.FlagSet) *string {
	return fs.String("job", "", "restrict to events carrying this job ID's baggage")
}

func filterJob(events []obs.Event, id string) []obs.Event {
	if id == "" {
		return events
	}
	out := analysis.FilterJob(events, id)
	if len(out) == 0 {
		fatal(fmt.Errorf("no events for job %q (is this a control-plane trace?)", id))
	}
	return out
}

func runSummary(args []string) {
	fs := newFlagSet("summary", "trace.jsonl")
	job := jobFlag(fs)
	path := parseMixed(fs, args, 1)[0]
	events, err := analysis.ReadTraceFile(path)
	if err != nil {
		fatal(err)
	}
	events = filterJob(events, *job)
	fmt.Print(analysis.SummaryTable(analysis.Aggregate(events)))
	if t := analysis.RPCacheTable(analysis.RPCache(events)); t != "" {
		fmt.Print("\n" + t)
	}
}

func runFleet(args []string) {
	fs := newFlagSet("fleet", "trace.jsonl")
	job := jobFlag(fs)
	path := parseMixed(fs, args, 1)[0]
	events, err := analysis.ReadTraceFile(path)
	if err != nil {
		fatal(err)
	}
	fmt.Print(analysis.FleetStats(filterJob(events, *job)).Table())
}

func runTree(args []string) {
	fs := newFlagSet("tree", "trace.jsonl")
	job := jobFlag(fs)
	path := parseMixed(fs, args, 1)[0]
	events, dropped, err := analysis.ReadTraceFileLenient(path)
	if err != nil {
		fatal(err)
	}
	if dropped {
		fmt.Fprintln(os.Stderr, "obstool: dropped truncated final trace line (run killed mid-write?)")
	}
	events = filterJob(events, *job)
	trees := analysis.BuildTrees(events)
	if len(trees) == 0 {
		fatal(fmt.Errorf("no spans with trace context in %s (trace written before span IDs, or tracing off?)", path))
	}
	if t0, ok := analysis.TraceT0(events); ok {
		fmt.Printf("t0 %s\n", t0)
	}
	fmt.Print(analysis.TreeTable(trees))
}

func runPredictor(args []string) {
	fs := newFlagSet("predictor", "trace.jsonl")
	factor := fs.Float64("spike-factor", 3, "flag steps whose fallback rate exceeds this multiple of the run median")
	minRate := fs.Float64("min-rate", 0.001, "absolute fallback-rate floor below which nothing is a spike")
	path := parseMixed(fs, args, 1)[0]
	events, err := analysis.ReadTraceFile(path)
	if err != nil {
		fatal(err)
	}
	points := analysis.PredictorSeries(events)
	spikes := analysis.FallbackSpikes(points, *factor, *minRate)
	fmt.Print(analysis.PredictorTable(points, spikes))
	if t := analysis.RPCacheTable(analysis.RPCache(events)); t != "" {
		fmt.Print("\n" + t)
	}
	if len(spikes) > 0 {
		os.Exit(1)
	}
}

func runDiff(args []string) {
	fs := newFlagSet("diff", "old.jsonl new.jsonl")
	maxRegress := fs.String("max-regress", "", "fail (exit 1) when any shared span's mean regresses beyond this (e.g. 10%)")
	paths := parseMixed(fs, args, 2)
	oldEvents, err := analysis.ReadTraceFile(paths[0])
	if err != nil {
		fatal(err)
	}
	newEvents, err := analysis.ReadTraceFile(paths[1])
	if err != nil {
		fatal(err)
	}
	rows := analysis.Diff(oldEvents, newEvents)
	fmt.Print(analysis.DiffTable(rows))
	if *maxRegress != "" {
		limit, err := parseRegress(*maxRegress)
		if err != nil {
			fatal(err)
		}
		if regs := analysis.Regressions(rows, limit); len(regs) > 0 {
			fmt.Printf("\n%d span(s) regressed beyond %s:\n", len(regs), *maxRegress)
			for _, r := range regs {
				fmt.Printf("  %-28s mean %+.1f%% (%.3fms -> %.3fms)\n",
					r.Name, 100*r.MeanDelta, r.OldMean*1e3, r.NewMean*1e3)
			}
			os.Exit(1)
		}
		fmt.Printf("\nno span regressed beyond %s\n", *maxRegress)
	}
}

func runPostmortem(args []string) {
	fs := newFlagSet("postmortem", "bundle-dir")
	dir := parseMixed(fs, args, 1)[0]
	pm, err := analysis.ReadPostmortem(dir)
	if err != nil {
		fatal(err)
	}
	fmt.Print(pm.Report())
}
