package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"beamdyn/internal/jobs"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/export"
)

// runServe is the "beamsim serve" mode: a long-running job control plane
// serving the jobs API alongside the telemetry endpoints. Jobs run in
// submission order, checkpointed at every step and resumed from the
// latest checkpoint after a kernel panic.
//
//	beamsim serve -http :8080 -workers 2
//	beamsim serve -oneshot -submit a.json,b.json -trace serve.jsonl
//
// -submit preloads JobSpec files at startup; with -oneshot the process
// exits once those jobs finish (the CI harness for the scenario catalog),
// otherwise it serves until killed.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: beamsim serve [flags]\nflags:\n")
		fs.PrintDefaults()
	}
	var (
		httpAddr = fs.String("http", ":8080", "serve the jobs API + telemetry on this address (empty disables HTTP; useful with -oneshot)")
		workers  = fs.Int("workers", 2, "dispatch workers (jobs running concurrently)")
		traceOut = fs.String("trace", "", "write the control plane's JSONL span/event trace to this file")
		submit   = fs.String("submit", "", "comma-separated JobSpec files to submit at startup")
		oneshot  = fs.Bool("oneshot", false, "exit after the -submit jobs finish (requires -submit)")
		node     = fs.String("node", "", "node label stamped as baggage on every job's traced spans")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		log.Fatalf("serve: unexpected argument %q", fs.Arg(0))
	}
	if *oneshot && *submit == "" {
		log.Fatal("serve: -oneshot needs -submit")
	}
	if *httpAddr == "" && *submit == "" {
		log.Fatal("serve: nothing to do — give -http and/or -submit")
	}

	observer := obs.New()
	var traceSink *obs.JSONLSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		traceSink = obs.NewJSONLSink(f)
		observer.Trace = obs.NewTracer(traceSink)
	}

	js := jobs.New(jobs.Config{Workers: *workers, Obs: observer, Node: *node})

	if *httpAddr != "" {
		// No alert engine and no stall window: each job's alerts go to its
		// event log, and the jobs share one sim_step gauge, so neither
		// /alerts nor a step-liveness check would describe any one job.
		srv := &export.Server{Obs: observer}
		srv.Mount("/jobs", js.Handler())
		srv.Mount("/jobs/", js.Handler())
		_, addr, err := srv.Start(*httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("control plane: http://%s (/jobs /metrics /snapshot.json /healthz)\n", addr)
	}

	var submitted []*jobs.Job
	if *submit != "" {
		for _, path := range strings.Split(*submit, ",") {
			sp, err := jobs.LoadSpec(strings.TrimSpace(path))
			if err != nil {
				log.Fatal(err)
			}
			j, err := js.Submit(sp)
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			fmt.Printf("submitted %s  %s\n", j.ID, sp.Name)
			submitted = append(submitted, j)
		}
	}

	if !*oneshot {
		select {} // serve until killed
	}

	failed := 0
	for _, j := range submitted {
		<-j.Done()
		st := j.Status()
		line := fmt.Sprintf("%s  %-24s %-9s attempts=%d wait=%.3fs run=%.3fs",
			j.ID, st.Name, st.State, st.Attempts, st.QueueWaitSec, st.RunSec)
		if res := j.Result(); res != nil {
			line += fmt.Sprintf(" sha256=%s", res.SHA256[:12])
		}
		if st.Error != "" {
			line += fmt.Sprintf(" error=%q", st.Error)
			failed++
		}
		fmt.Println(line)
	}
	js.Close()
	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			log.Fatalf("trace sink: %v", err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
