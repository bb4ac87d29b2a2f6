GO ?= go
GOFMT ?= gofmt

.PHONY: ci fmt vet build test race test-alert-race test-jobs-race test-trace-race test-rp-race test-gpu-race bench-obs bench-host bench-floors test-advbench fuzz

# The full local CI gate: what a PR must pass.
ci: fmt vet build race test-alert-race test-jobs-race test-trace-race test-rp-race test-gpu-race bench-obs bench-host bench-floors test-advbench fuzz

# Formatting gate: fail (and list the offenders) if any file needs gofmt.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The end-to-end benchmark is a module of its own, outside ./...: run its
# seam-fidelity tests (bitwise potentials and ==-equal Metrics with the
# benchmark's Algorithm wrapper and Recorder attached) in the offline
# environment advbench/run.sh uses.
test-advbench:
	cd advbench && GOFLAGS= GOWORK=off GOPROXY=off $(GO) test -count=1 ./...

race:
	$(GO) test -race ./...

# Incident-layer race gate: the alert engine, flight recorder, bundle
# writer and export server are all crossed by concurrent goroutines
# (watchdogs, scrapers, the step loop), so race-check them directly, then
# run a two-device fleet with alerting and post-mortem dumping enabled and
# triage the resulting bundle with obstool — the full incident chain, end
# to end, on every PR. The trigger is one the simulation makes itself:
# Predictive-RP's safety net refines some panels on every step, and the
# predictor signals start at the first step planned from a trained
# forecast, so the critical "fallback_rate>0" rule fires at step 8 (the
# subregion count grows until kappa = 6 at step 7) and dumps
# postmortem-00-step8-alert; the steptime rule runs the step-time signal
# end to end as a warning, which dumps nothing. This gate, test-jobs-race and
# test-trace-race write under a fresh mktemp -d directory (it honours
# TMPDIR) and remove it on exit.
test-alert-race:
	$(GO) test -race -count=1 ./internal/obs/...
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/beamsim -n 5000 -grid 32 -steps 4 -kernel predictive \
		-devices 2 -alerts "fallback_rate>0:for=1;steptime>60:sev=warn" \
		-postmortem-dir "$$dir" && \
	$(GO) run ./cmd/obstool postmortem "$$dir"/postmortem-00-*

# Control-plane gate: race-check the jobs package (queue hammering, the
# checkpoint/resume chaos test), then run the scenario catalog through a
# real oneshot server with tracing on.
test-jobs-race:
	$(GO) test -race -count=1 ./internal/jobs/...
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/beamsim serve -http "" -oneshot \
		-trace "$$dir/jobs_trace.jsonl" \
		-submit examples/scenarios/smooth-gaussian.json,examples/scenarios/halo-dominated.json,examples/scenarios/bunch-compression.json

# Distributed-tracing gate: race-check the span-context paths (concurrent
# scoped tracers hammering one tracer's ID counters and sink), then run a
# two-job oneshot serve with tracing on under the race detector and
# reconstruct each job's causal tree with obstool — the context-propagation
# chain (submit -> queue-wait -> run -> step -> kernels/fleet) end to end.
test-trace-race:
	$(GO) test -race -count=1 -run 'Trace|Scope|Span|Tree|Exemplar' \
		./internal/obs/... ./internal/jobs/...
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run -race ./cmd/beamsim serve -http "" -oneshot \
		-node ci -trace "$$dir/trace_gate.jsonl" \
		-submit examples/scenarios/smooth-gaussian.json,examples/scenarios/halo-dominated.json && \
	$(GO) run ./cmd/obstool tree "$$dir/trace_gate.jsonl"

# Telemetry-overhead check: the disabled path must stay within 5% of the
# uninstrumented kernel step, and the full incident layer (flight recorder
# + default alert rules — fallback rate, charge drift —
# + invariant gauges) within 5% of the bare simulation step (compare the
# Benchmark lines by hand, or with benchstat when available).
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkObs' -benchtime 5x ./internal/kernels
	$(GO) test -run '^$$' -bench 'BenchmarkObs' -benchtime 5x ./internal/core

# Host-phase microbenchmarks, per worker count (see internal/hostpar):
# predict/cluster/train ns per step, and at the particles-1m shape (32x32,
# 10^6 particles) the serial centroid, the serial deposit per scheme, and
# per worker count Advance's NGP deposit (pooled cell pass plus ordered
# accumulation), its force stage from those cells, and the force stage
# plus push per scheme (NGP, CIC) (rows above the CPU count are skipped),
# each with allocations per step.
bench-host:
	$(GO) test -run '^$$' -bench 'BenchmarkPredictiveHostPhases' -benchtime 3x \
		-benchmem ./internal/kernels
	$(GO) test -run '^$$' -bench 'BenchmarkParticleStages' -benchtime 10x \
		-benchmem ./internal/core

# Streaming replay engine race gate: the device fans SMs out as
# goroutines with per-SM scratch. gpusim's A/B matrices drive the streaming
# engine and the test-side oracle across resident windows, SM counts and
# partial warps; the committed identity digests of kernels and fleet then
# drive the replay under the fleet's per-device goroutines. The rest of
# the fleet package (placement, concurrency, a device panic reaching the
# caller) is race-checked by the race target.
test-gpu-race:
	$(GO) test -race -count=1 ./internal/gpusim/...
	$(GO) test -race -count=1 -run 'IdentityHashes' ./internal/kernels/... ./internal/fleet/...

# Tiled-dispatch race gate: the cache-blocked GridSolver's workers claim
# tiles (and fallback rows) from a shared counter, with per-worker
# evaluators and shared target writes, so race-check the whole retard
# package (the A/B and determinism tests drive both dispatches at several
# worker counts, repeating each solve) and run hostpar's claim-loop tests
# ten times under the race detector, in every CI run.
test-rp-race:
	$(GO) test -race -count=1 ./internal/retard/...
	$(GO) test -race -count=10 ./internal/hostpar/...

# Oracle floors: each optimized engine against the seed path it replaced,
# measured by go test benchmarks in the package whose tests hold the
# oracle. BenchmarkReplayFloor holds the streaming replay to >= 1.3x the
# oracle replay in gpusim's tests over four workload shapes at 48x48 (and
# >= 1x on each);
# BenchmarkEvaluatorFloor holds the rp panel evaluator to >= 5x the seed
# closure path and GridSolver to >= 1.6x at 4 workers vs 1, and reports
# GridSolver's 2-worker speedup without a floor; the scaling rows alternate
# the 1- and w-worker solves within every rep (min of 8 each), and the
# 2-worker row read 0.98x-2.41x over 40 runs on 2 shared vCPUs (median
# 1.81x); each scaling row is skipped on machines with fewer CPUs than its
# workers. Timing floors stay out of go test ./... and the race build,
# which run no benchmarks.
bench-floors:
	$(GO) test -run '^$$' -bench Floor -benchtime 1x ./internal/gpusim ./internal/retard

# Parser fuzzing: run each native fuzz target for a few seconds from its
# seed corpus (the scenario catalog, specs past the step, band and device
# bounds or carrying a removed fault script, the -alerts scripts above and
# README's, a rejected "mad=" rule option and device signal, non-finite
# numbers, a JSONL trace with truncated and corrupt copies, and a small
# checkpoint with crafted configs). No input may panic, and an accepted
# input's canonical form (re-marshalled spec, Rule.Name, re-encoded trace
# lines, re-saved checkpoint) must parse back to an equal value; the strict and lenient trace readers must agree.
# A failing input is saved under the package's testdata/fuzz and replays
# in every go test run from then on. FuzzLoad's inputs are ~3 KB gob
# streams, and minimizing a new one ran the whole default 60 s budget
# (34 execs in a 90 s run), so its minimization stops after 100 runs.
# FuzzEvaluatorMatchesClosure fuzzes the rp evaluator rather than a
# parser: a problem index (three inner rules x a bunch straddling y = 0
# or 5 cm from it) and a point as fractions of the grid's extent, inside
# or outside it, seeded with the bunch centre, the corners and the y = 0
# rows; Evaluator.SolvePoint must equal the closure oracle bit for bit.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 5s ./internal/jobs
	$(GO) test -run '^$$' -fuzz '^FuzzParseRules$$' -fuzztime 5s ./internal/obs/alert
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime 5s ./internal/obs/analysis
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzEvaluatorMatchesClosure$$' -fuzztime 5s ./internal/retard
