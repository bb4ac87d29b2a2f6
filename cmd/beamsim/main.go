// Command beamsim runs a full beam-dynamics simulation (the four-step loop
// of the paper's Figure 1) with a selectable compute-potentials kernel and
// prints per-step simulated-GPU profiler metrics.
//
// Usage:
//
//	beamsim -n 100000 -grid 64 -steps 12 -kernel predictive \
//	        -trace run.jsonl -metrics run.json -obs-interval 2
//
// The -trace/-metrics/-obs-interval flags enable the telemetry layer (see
// the Observability section of README.md): a JSONL span trace of every
// loop stage and kernel sub-phase, an end-of-run metrics snapshot with the
// per-step predictor-quality series ("-metrics -" prints it to stdout),
// and a periodic one-line summary. Adding "-http :8080" serves the live
// telemetry over HTTP while the run advances: /metrics (Prometheus text
// exposition), /snapshot.json, /healthz (step liveness and active
// alerts) and /debug/pprof. Traces feed the offline obstool analyzer
// (summary, fleet, tree, predictor, diff).
//
// Multi-device runs: -devices N (N > 1, at most fleet.MaxDevices) runs the
// kernel on a fleet of N simulated K40s (internal/fleet), one row-band per
// device:
//
//	beamsim -devices 4 -steps 6
//
// The incident layer (see the Incidents & alerts section of README.md)
// rides on the same observer: -alerts evaluates a per-step rule script
// ("default" for the built-in set) over step time, predictor quality and
// the beam's physics invariants, e.g.
//
//	beamsim -alerts "fallback_rate>0.2:for=5;steptime>2;charge_drift>0.01"
//
// and -postmortem-dir makes critical alerts, stalls and run errors dump a
// self-contained post-mortem bundle there (flight trace, metrics
// snapshot, alert log, checkpoint, goroutine stacks) for offline triage
// with "obstool postmortem". The flight trace comes from a recorder that
// -postmortem-dir turns on: it keeps the last flight.DefaultDepth trace
// events in memory even when -trace is off.
//
// "beamsim serve" switches from one-shot runs to the job control plane
// (see the Serving section of README.md): simulations are submitted as
// JobSpec documents over HTTP (POST /jobs), queued in submission order,
// dispatched onto a worker pool, checkpointed every step and resumed
// from the latest checkpoint after a kernel panic.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"beamdyn"
	"beamdyn/internal/diagnostics"
	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
	"beamdyn/internal/obs/bundle"
	"beamdyn/internal/obs/export"
	"beamdyn/internal/obs/flight"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("beamsim: ")
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	var (
		n       = flag.Int("n", 100000, "number of macro-particles")
		nx      = flag.Int("grid", 64, "grid resolution (NxN)")
		steps   = flag.Int("steps", 6, "time steps to run after warm-up")
		kernel  = flag.String("kernel", "predictive", "kernel: twophase | heuristic | predictive | reference")
		kappa   = flag.Int("kappa", 6, "retardation depth in subregions")
		tol     = flag.Float64("tol", 1e-8, "rp-integral error tolerance")
		seed    = flag.Uint64("seed", 1, "Monte-Carlo seed")
		dynamic = flag.Bool("dynamic", false, "let the bunch respond to its self-forces (default: rigid)")
		profile = flag.Bool("profile", false, "print an nvprof-style per-kernel summary at the end")
		diag    = flag.Bool("diag", false, "print beam diagnostics (emittance, Twiss, profile sparkline) each step")
		load    = flag.String("load", "", "resume from a checkpoint file")
		save    = flag.String("save", "", "write a checkpoint file at the end")

		hostWorkers = flag.Int("host-workers", 0, "host-side worker count for the kernels' predict/cluster/train phases, the reference solver and the particle force gather and push (0 = GOMAXPROCS; results are identical for any value)")

		devices = flag.Int("devices", 1, fmt.Sprintf("number of simulated devices (at most %d); more than one runs the kernel on a device fleet, one row-band per device", fleet.MaxDevices))

		traceOut    = flag.String("trace", "", "write a JSONL span/event trace to this file")
		node        = flag.String("node", "", "node label stamped as baggage on every traced span/event")
		metricsOut  = flag.String("metrics", "", "write an end-of-run metrics snapshot (JSON) to this file (\"-\" for stdout)")
		obsInterval = flag.Int("obs-interval", 0, "print a predictor-quality summary every N steps (0 disables)")
		httpAddr    = flag.String("http", "", "serve live telemetry on this address (e.g. :8080): /metrics, /snapshot.json, /healthz, /alerts, /debug/pprof")
		staleAfter  = flag.Duration("stale-after", 30*time.Second, "with -http, /healthz reports stalled (503) when no step completes within this window; with -postmortem-dir, the stall watchdog dumps a bundle after it (0 disables both)")

		alerts        = flag.String("alerts", "", "per-step alert rules, e.g. \"fallback_rate>0.2:for=5;steptime>2;charge_drift>0.01\" (\"default\" for the built-in set; empty disables alerting)")
		postmortemDir = flag.String("postmortem-dir", "", "dump post-mortem bundles under this directory on critical alerts, stalls and run errors; also keeps the last trace events in memory for them")
	)
	flag.Parse()
	if err := checkDevices(*devices); err != nil {
		log.Fatalf("invalid flags: %v", err)
	}

	var sim *beamdyn.Simulation
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		sim, err = beamdyn.LoadCheckpoint(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resumed from %s at step %d\n", *load, sim.Step)
	} else {
		cfg := beamdyn.DefaultConfig()
		cfg.Beam.NumParticles = *n
		cfg.NX, cfg.NY = *nx, *nx
		cfg.Kappa = *kappa
		cfg.Tol = *tol
		cfg.Seed = *seed
		cfg.Rigid = !*dynamic
		if err := cfg.Validate(); err != nil {
			log.Fatalf("invalid flags: %v", err)
		}
		sim = beamdyn.New(cfg)
	}
	sim.Cfg.HostWorkers = *hostWorkers
	fleetMode := *devices > 1
	prof := gpusim.NewProfiler()

	// Telemetry: one observer feeds the trace sink, the metrics registry
	// (including the simulated-GPU counters via the device recorder) and
	// the predictor-quality series. Fleet runs always get an observer so
	// the end-of-run snapshot table carries the fleet counters (bands
	// dispatched, per-device busy time and utilization).
	var (
		observer  *obs.Observer
		traceSink *obs.JSONLSink
		flightRec *flight.Recorder
	)
	if *traceOut != "" || *metricsOut != "" || *obsInterval > 0 || fleetMode ||
		*httpAddr != "" || *alerts != "" || *postmortemDir != "" {
		observer = beamdyn.NewObserver()
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				log.Fatal(err)
			}
			// The sink owns the file: its Close flushes and closes it.
			traceSink = obs.NewJSONLSink(f)
		}
		// With a bundle directory, the flight recorder sits in front of the
		// (optional) trace file: the bundle writer is its only reader, and
		// it gives an incident bundle a trace even when -trace was never
		// given.
		var sink obs.Sink
		if traceSink != nil {
			sink = traceSink
		}
		if *postmortemDir != "" {
			flightRec = flight.New(flight.DefaultDepth, sink)
			sink = flightRec
		}
		if sink != nil {
			observer.Trace = obs.NewTracer(sink)
		}
		sim.Obs = observer
	}

	// Run-level trace scope: the whole run shares one trace ID, and -node
	// (when given) rides as baggage on every span. A no-op (the same
	// observer back) when tracing is off, so untraced runs are untouched.
	runObs := observer
	if observer != nil {
		var baggage []obs.Attr
		if *node != "" {
			baggage = append(baggage, obs.S("node", *node))
		}
		runObs = observer.StartTrace(baggage...)
		sim.Obs = runObs
	}

	// The bundle writer is assigned after the alert engine below; the
	// OnAlert callback closes over the variable and only runs once stepping
	// starts, so the late assignment is safe.
	var bundleW *bundle.Writer

	var engine *alert.Engine
	if *alerts != "" {
		spec := *alerts
		if spec == "default" {
			spec = alert.DefaultRules
		}
		rules, err := alert.ParseRules(spec)
		if err != nil {
			log.Fatal(err)
		}
		engine = alert.NewEngine(alert.Config{
			Rules: rules,
			Obs:   observer,
			OnAlert: func(a alert.Alert) {
				log.Printf("ALERT %s", a.Message)
				if bundleW != nil && a.Severity == alert.Critical.String() {
					trigger := a
					if dir, err := bundleW.Dump("alert", a.Step, &trigger); err != nil {
						log.Printf("post-mortem: %v", err)
					} else {
						log.Printf("post-mortem bundle at %s", dir)
					}
				}
			},
		})
		sim.Alerts = engine
	}

	var ksel beamdyn.Kernel
	switch *kernel {
	case "twophase":
		ksel = beamdyn.TwoPhaseRP
	case "heuristic":
		ksel = beamdyn.HeuristicRP
	case "predictive":
		ksel = beamdyn.PredictiveRP
	case "reference":
		if fleetMode {
			log.Fatal("-kernel reference runs on the host; it cannot drive -devices")
		}
	default:
		log.Printf("unknown kernel %q", *kernel)
		flag.Usage()
		os.Exit(2)
	}

	newDevice := func(d int) *gpusim.Device {
		dev := beamdyn.NewDevice(beamdyn.KeplerK40())
		dev.SetLabel(fmt.Sprintf("dev%d", d))
		if *profile {
			dev.AttachProfiler(prof)
		}
		if observer != nil {
			dev.AttachRecorder(runObs.GPURecorder())
		}
		return dev
	}

	var fl *fleet.Fleet
	var devs []*gpusim.Device
	switch {
	case *kernel == "reference":
		// Host reference solver: sim.Algo stays nil.
	case fleetMode:
		devs = make([]*gpusim.Device, *devices)
		for d := range devs {
			devs[d] = newDevice(d)
		}
		fl = fleet.New(fleet.Config{
			Devices: devs,
			MakeKernel: func(id int, dev *gpusim.Device) beamdyn.Algorithm {
				return beamdyn.NewKernelOn(ksel, dev)
			},
		})
		sim.Algo = fl
	default:
		sim.Algo = beamdyn.NewKernelOn(ksel, newDevice(0))
	}

	if *postmortemDir != "" {
		bundleW = bundle.NewWriter(bundle.Config{
			Dir:        *postmortemDir,
			Obs:        observer,
			Flight:     flightRec,
			Alerts:     engine,
			Checkpoint: sim.Save,
		})
	}

	if *httpAddr != "" {
		srv := &export.Server{Obs: observer, Alerts: engine, StaleAfter: *staleAfter}
		_, addr, err := srv.Start(*httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry: http://%s (/metrics /snapshot.json /healthz /alerts /debug/pprof/)\n", addr)
	}

	// Stall watchdog: when a bundle directory is wired, a stuck step dumps
	// a live bundle (no checkpoint — the stuck step owns the simulation
	// state) so the incident is preserved even if the process then hangs
	// forever or is killed.
	var watchStop chan struct{}
	if bundleW != nil && observer != nil && *staleAfter > 0 {
		watchStop = make(chan struct{})
		go watchStall(observer, bundleW, *staleAfter, watchStop)
	}

	mode := ""
	if fleetMode {
		mode = fmt.Sprintf(" devices=%d (fleet)", *devices)
	}
	fmt.Printf("beamdyn simulation: N=%d grid=%dx%d kappa=%d tol=%g kernel=%s%s\n",
		sim.Cfg.Beam.NumParticles, sim.Cfg.NX, sim.Cfg.NY, sim.Cfg.Kappa, sim.Cfg.Tol, *kernel, mode)
	// The warm-up and step loop run under the run-error guard: a panic
	// anywhere inside dumps a post-mortem bundle and flushes the trace file
	// before propagating, so a crashed run still leaves its evidence.
	runGuarded(bundleW, sim, traceSink, func() {
		t0 := time.Now()
		sim.Warmup()
		fmt.Printf("warm-up (history filled through step %d): %.2fs\n",
			sim.Step, time.Since(t0).Seconds())

		for i := 0; i < *steps; i++ {
			t0 = time.Now()
			step := sim.Advance()
			wall := time.Since(t0).Seconds()
			st := sim.Ensemble.Stats()
			if sim.Last != nil {
				m := sim.Last.Metrics
				fmt.Printf("step %3d: gpu=%.4gs gflops=%.0f wee=%.1f%% gle=%.1f%% l1=%.1f%% fallback=%d host=%.3fs wall=%.2fs sigma=(%.3g, %.3g)\n",
					step, m.Time, m.Gflops(),
					100*m.WarpExecutionEfficiency(), 100*m.GlobalLoadEfficiency(),
					100*m.L1HitRate(), sim.Last.FallbackEntries,
					sim.Last.Host.Overhead(), wall, st.SigmaX, st.SigmaY)
			} else {
				fmt.Printf("step %3d: host reference, wall=%.2fs sigma=(%.3g, %.3g)\n",
					step, wall, st.SigmaX, st.SigmaY)
			}
			if *diag && sim.Ensemble.Len() > 0 {
				sum := diagnostics.Analyze(sim.Ensemble)
				fmt.Printf("          %s\n", sum)
				yprof := diagnostics.Project(sim.Ensemble, diagnostics.AxisY,
					sum.MeanY-5*sum.SigmaY, sum.MeanY+5*sum.SigmaY, 48)
				fmt.Printf("          |%s|\n", yprof.Sparkline())
			}
			if observer != nil && *obsInterval > 0 && (i+1)%*obsInterval == 0 {
				if s, ok := observer.Pred.Last(); ok {
					fmt.Printf("          obs: kernel=%s trained=%t fallback-rate=%.4f err(mean/p90/max)=%.3g/%.3g/%.3g train=%.3gs\n",
						s.Kernel, s.Trained, s.FallbackRate, s.ErrMean, s.ErrP90, s.ErrMax, s.TrainSec)
				}
				observer.Event("obs/interval", step, obs.I("interval", *obsInterval))
			}
		}
	})
	if watchStop != nil {
		close(watchStop)
	}
	if dropped := sim.Dropped(); dropped > 0 {
		fmt.Printf("warning: %d particle depositions fell outside the grid\n", dropped)
	}
	if *profile {
		fmt.Println("\nsimulated-GPU kernel summary:")
		fmt.Print(prof)
	}
	if fl != nil {
		st := fl.LastStats()
		fmt.Printf("\nfleet summary (last step): bands=%d\n", st.Bands)
		for d, dev := range devs {
			fmt.Printf("  %-6s busy=%.4gs util=%.0f%%\n",
				dev.Label(), st.Busy[d], 100*st.Utilization(d))
		}
	}
	if observer != nil {
		fmt.Println("\ntelemetry snapshot:")
		fmt.Print(observer.Reg.Snapshot().Table())
		if s, ok := observer.Pred.Last(); ok {
			fmt.Printf("predictor (last step %d): fallback-rate=%.4f err-mean=%.3g err-max=%.3g samples=%d\n",
				s.Step, s.FallbackRate, s.ErrMean, s.ErrMax, len(observer.Pred.Samples()))
		}
	}
	if *metricsOut == "-" {
		if err := observer.WriteSnapshot(os.Stdout); err != nil {
			log.Fatal(err)
		}
	} else if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := observer.WriteSnapshot(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
	}
	if traceSink != nil {
		// Close flushes the buffer, closes the file and surfaces the first
		// error hit anywhere along the run.
		if err := traceSink.Close(); err != nil {
			log.Fatalf("trace sink: %v", err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.Save(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("checkpoint written to %s (step %d)\n", *save, sim.Step)
	}
}

// checkDevices reports why -devices n cannot run.
func checkDevices(n int) error {
	if n < 1 || n > fleet.MaxDevices {
		return fmt.Errorf("-devices %d: want 1 to %d devices", n, fleet.MaxDevices)
	}
	return nil
}

// runGuarded runs body and, on panic, dumps a "run-error" bundle and
// flushes the trace sink before re-panicking. DumpLive (no checkpoint)
// because the simulation state mid-panic is not trustworthy.
func runGuarded(w *bundle.Writer, sim *beamdyn.Simulation, trace *obs.JSONLSink, body func()) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if w != nil {
			if dir, err := w.DumpLive("run-error", sim.Step, nil); err != nil {
				log.Printf("post-mortem: %v", err)
			} else {
				log.Printf("run error: post-mortem bundle at %s", dir)
			}
		}
		if trace != nil {
			trace.Close()
		}
		panic(r)
	}()
	body()
}

// watchStall polls the sim_step gauge (atomic, so safe to read while the
// step executes) and dumps one live post-mortem bundle if the counter
// stops moving for longer than the stall window, then exits. The main
// loop closes stop on a normal finish.
func watchStall(o *obs.Observer, w *bundle.Writer, after time.Duration, stop chan struct{}) {
	period := after / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	last := o.Reg.Gauge("sim_step").Value()
	moved := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			cur := o.Reg.Gauge("sim_step").Value()
			if cur != last {
				last, moved = cur, time.Now()
				continue
			}
			if time.Since(moved) > after {
				if dir, err := w.DumpLive("stall", int(cur), nil); err != nil {
					log.Printf("post-mortem: %v", err)
				} else {
					log.Printf("stall: no step progress for %s; post-mortem bundle at %s", after, dir)
				}
				return
			}
		}
	}
}
