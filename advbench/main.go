// Command advbench is the end-to-end benchmark of whole
// Simulation.Advance steps. It runs one named workload, checks every
// measured step against an independent host-reference solve, and prints as
// its last line one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation attached. With -trace 1 a separate traced run times each
// layer from outside, at public seams the simulation already calls
// through, and the metrics are the per-layer ones. The line before it is a
// JSON run record: environment, workload configuration, and the identity
// figures (potentials checksum, Metrics digest, exact counts) that let two
// builds show bitwise-identical results. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"beamdyn/internal/core"
)

// An end-to-end run sets the simulation up at least minSetups times and
// until the set-ups total minSetupTime (at most maxSetups times); setup_s
// is their median.
const (
	minSetups    = 3
	maxSetups    = 9
	minSetupTime = 4 * time.Second
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "seed of the bunch sampling")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "advbench:", err)
		os.Exit(2)
	}
	// One simulation at a time, never more Go threads than CPUs.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))

	window := time.Duration(*seconds) * time.Second
	cfg := w.config(*seed)
	record := map[string]any{
		"workload":   w,
		"tau":        cfg.Tol,
		"kappa":      cfg.Kappa,
		"seed":       *seed,
		"trace":      *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go":         runtime.Version(),
	}
	var res result
	if *trace == 1 {
		res = runTraced(w, *seed, window, record)
	} else {
		res = runEndToEnd(w, *seed, window, record)
	}
	res.Correct = res.Failed == 0
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Correct = false
			v.Value = -1
			res.Metrics[k] = v
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"run": record}); err != nil {
		fmt.Fprintln(os.Stderr, "advbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "advbench:", err)
		os.Exit(1)
	}
}

// runEndToEnd sets the workload up several times, then advances the last
// simulation for the window (and at least identitySteps steps), timing each
// Advance alone and checking each step's output outside its timing.
func runEndToEnd(w workload, seed uint64, window time.Duration, record map[string]any) result {
	var sim *core.Simulation
	var setups []float64
	for n := 0; n < maxSetups && (n < minSetups || sum(setups) < minSetupTime.Seconds()); n++ {
		sim = nil // collected before the next set-up is timed
		runtime.GC()
		var d time.Duration
		sim, d = setUp(w, seed, nil)
		setups = append(setups, d.Seconds())
	}
	runtime.GC()

	chk := newChecker()
	var steps []float64
	failed := 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	for start := time.Now(); len(steps) < identitySteps || time.Since(start) < window; {
		t0 := time.Now()
		sim.Advance()
		steps = append(steps, time.Since(t0).Seconds())
		if !chk.check(sim) {
			failed++
		}
	}
	runtime.ReadMemStats(&ms)

	record["setup_s_samples"] = setups
	record["steps"] = len(steps)
	record["step_s_samples"] = steps
	record["step_s_tail_pct"] = tailPercentile(len(steps))
	record["identity"] = chk.identity(w.Kernel != "reference")
	return result{
		Attempted: len(steps),
		Failed:    failed,
		Metrics:   endToEnd(steps, setups, ms.TotalAlloc-alloc0),
	}
}

// endToEnd computes the end-to-end metrics from the measured steps' wall
// times, the set-up times and the bytes allocated over the window.
func endToEnd(steps, setups []float64, alloc uint64) map[string]value {
	n := float64(len(steps))
	return map[string]value{
		"step_s_p50":        {quantile(steps, 50), "s"},
		"step_s_tail":       {quantile(steps, tailPercentile(len(steps))), "s"},
		"steps_per_s":       {n / sum(steps), "1/s"},
		"setup_s":           {quantile(setups, 50), "s"},
		"alloc_mb_per_step": {float64(alloc) / 1e6 / n, "MB"},
	}
}

// runTraced sets the workload up once with the layer seams installed, then
// alternates untraced and traced steps for the window (and at least
// identitySteps traced steps). Untraced steps give the baseline of
// trace_overhead_ratio; traced steps also re-run their particle stages on
// a copy of the pre-step state.
func runTraced(w workload, seed uint64, window time.Duration, record map[string]any) result {
	tr := &tracer{}
	sim, _ := setUp(w, seed, tr)
	setupFallback := tr.setupFallback
	runtime.GC()

	chk := newChecker()
	var layers particleLayers
	var traced []stepTrace
	var bare []float64
	failed := 0
	for start := time.Now(); len(traced) < identitySteps || time.Since(start) < window; {
		ok := true
		if len(bare) == len(traced) {
			bare = append(bare, tr.advance(sim, false).Seconds())
		} else {
			layers.snapshot(sim)
			tr.advance(sim, true)
			st := tr.cur
			ok = layers.replay(sim, &st)
			traced = append(traced, st)
		}
		if !chk.check(sim) || !ok {
			failed++
		}
	}
	record["steps"] = len(bare) + len(traced)
	record["traced_steps"] = len(traced)
	record["identity"] = chk.identity(w.Kernel != "reference")
	return result{
		Attempted: len(bare) + len(traced),
		Failed:    failed,
		Metrics:   perLayer(w, traced, bare, setupFallback, chk),
	}
}
