GO ?= go
GOFMT ?= gofmt

.PHONY: ci fmt vet build test race test-fleet-race test-alert-race test-jobs-race test-trace-race test-rp-race test-gpu-race bench-obs bench-host bench-json bench-json-ci bench-rp bench-rp-scaling bench-rp-json bench-gpu bench-gpu-json obs-gate test-advbench

# The full local CI gate: what a PR must pass.
ci: fmt vet build race test-fleet-race test-alert-race test-jobs-race test-trace-race test-rp-race test-gpu-race bench-obs bench-host bench-json-ci bench-rp bench-rp-scaling bench-gpu obs-gate test-advbench

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

# Fault-injection paths are concurrency-heavy: race-check the fleet
# package and run a short scripted-failure chaos pass on every PR.
test-fleet-race:
	$(GO) test -race -count=1 ./internal/fleet/...
	$(GO) run ./cmd/beamsim -n 5000 -grid 32 -steps 2 -kernel twophase \
		-devices 4 -inject "fail:dev=1,step=10,after=1"

# Incident-layer race gate: the alert engine, flight recorder, bundle
# writer and export server are all crossed by concurrent goroutines
# (watchdogs, scrapers, the step loop), so race-check them directly, then
# run a scripted-chaos pass with alerting and post-mortem dumping enabled
# and triage the resulting bundle with obstool — the full incident chain,
# end to end, on every PR.
test-alert-race:
	$(GO) test -race -count=1 ./internal/obs/...
	rm -rf /tmp/beamdyn_pm
	$(GO) run ./cmd/beamsim -n 5000 -grid 32 -steps 4 -kernel twophase \
		-devices 2 -inject "fail:dev=1,step=9" \
		-alerts "device_failed:for=1;steptime:mad=8" \
		-flight-depth 1024 -postmortem-dir /tmp/beamdyn_pm
	$(GO) run ./cmd/obstool postmortem /tmp/beamdyn_pm/postmortem-00-*

# Control-plane gate: race-check the jobs package (queue hammering, the
# checkpoint/resume chaos test, SSE streaming), then run the scenario
# catalog through a real oneshot server with tracing on and hold the
# queue-wait p95 to the committed BENCH_jobs.json budget.
test-jobs-race:
	$(GO) test -race -count=1 ./internal/jobs/...
	$(GO) run ./cmd/beamsim serve -http "" -oneshot \
		-trace /tmp/jobs_gate_trace.jsonl \
		-submit examples/scenarios/smooth-gaussian.json,examples/scenarios/halo-dominated.json,examples/scenarios/bunch-compression.json
	$(GO) run ./cmd/obstool gate BENCH_jobs.json /tmp/jobs_gate_trace.jsonl

# Distributed-tracing gate: race-check the span-context paths (concurrent
# scoped tracers hammering one tracer's ID counters and sink), then run a
# two-job oneshot serve with tracing on under the race detector and
# reconstruct each job's causal tree with obstool — the context-propagation
# chain (submit -> queue-wait -> run -> step -> kernels/fleet) end to end.
test-trace-race:
	$(GO) test -race -count=1 -run 'Trace|Scope|Span|Tree|Exemplar' \
		./internal/obs/... ./internal/jobs/...
	$(GO) run -race ./cmd/beamsim serve -http "" -oneshot \
		-node ci -trace /tmp/trace_gate.jsonl \
		-submit examples/scenarios/smooth-gaussian.json,examples/scenarios/halo-dominated.json
	$(GO) run ./cmd/obstool tree /tmp/trace_gate.jsonl

# Telemetry-overhead check: the disabled path must stay within 5% of the
# uninstrumented kernel step, and the full incident layer (flight recorder
# + default alert rules + invariant gauges) within 5% of the bare
# simulation step (compare the Benchmark lines by hand, or with benchstat
# when available).
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkObs' -benchtime 5x ./internal/kernels
	$(GO) test -run '^$$' -bench 'BenchmarkObs' -benchtime 5x ./internal/core

# Host-phase microbenchmark: predict/cluster/train ns per step and
# allocations per step, per worker count (see internal/hostpar).
bench-host:
	$(GO) test -run '^$$' -bench 'BenchmarkPredictiveHostPhases' -benchtime 3x \
		-benchmem ./internal/kernels

# Refresh the committed BENCH_host.json at the canonical 128x128 size.
bench-json:
	$(GO) run ./cmd/benchhost -grid 128 -steps 3 -warmup 2 -workers 1,2,4 \
		-out BENCH_host.json

# CI variant: exercise the same measurement path on a small grid with a
# throwaway output file, so ci cannot clobber the committed numbers.
bench-json-ci:
	$(GO) run ./cmd/benchhost -grid 32 -steps 2 -warmup 1 -workers 1,2 \
		-out /tmp/BENCH_host_ci.json

# Streaming replay engine race gate: the device fans SMs out as
# goroutines with per-SM scratch, and the engine A/B matrices in gpusim,
# kernels and fleet drive both engines across every interleaving-sensitive
# path (resident windows, work stealing, multi-GPU fan-out).
test-gpu-race:
	$(GO) test -race -count=1 ./internal/gpusim/...
	$(GO) test -race -count=1 -run 'Engine' ./internal/kernels/... ./internal/fleet/...

# GPU replay-engine gate for CI: re-measure streaming vs oracle on a
# small grid with a throwaway output file and enforce the speedup floor +
# the zero-allocation contract. The fresh re-measurement uses a
# noise-tolerant floor of 1.3 (a small grid on a shared machine swings
# the ratio well below the committed 128x128 number); the committed
# >= 2x floor is enforced deterministically by obs-gate's BENCH_gpu.json
# self-checks.
bench-gpu:
	$(GO) run ./cmd/benchgpu -grid 48 -reps 3 -check \
		-min-speedup 1.3 -out /tmp/bench_gpu_ci.json

# Refresh the committed BENCH_gpu.json at the canonical 128x128 size.
bench-gpu-json:
	$(GO) run ./cmd/benchgpu -grid 128 -reps 7 -check -out BENCH_gpu.json

# Tiled-dispatch race gate: the cache-blocked GridSolver fans tiles out
# across the hostpar pool with per-worker evaluators and shared target
# writes, so race-check the whole retard package (the A/B and determinism
# tests drive the tiled path at several worker counts) on every PR.
test-rp-race:
	$(GO) test -race -count=1 ./internal/retard/...

# rp-integral core gate for CI: measure the evaluator against the
# seed-equivalent closure baseline on a small grid with a throwaway
# output file and enforce the speedup floor + zero-allocation contract.
# The fresh re-measurement uses a noise-tolerant floor of 5 (a small grid
# on a shared machine jitters ~10% around the committed 6.3x, and a gate
# that flakes gets deleted); the committed 128x128 floor of >= 6x is
# enforced deterministically by obs-gate's BENCH_rp.json self-checks.
bench-rp:
	$(GO) run ./cmd/benchrp -grid 48 -reps 8 -workers 1 -check \
		-min-speedup 5 -min-scaling 0 -out /tmp/bench_rp_ci.json

# Worker-sweep scaling gate: run the full-grid solve at 1/2/4 workers
# (un-pinned GOMAXPROCS, per-row gomaxprocs/num_cpu recorded) and enforce
# the >= 1.6x efficiency floor at 4 workers. On machines with fewer cores
# than workers the scaling check reports SKIPPED rather than gating on
# timeshared noise — the committed BENCH_rp.json still carries the floor.
bench-rp-scaling:
	$(GO) run ./cmd/benchrp -grid 48 -reps 8 -workers 1,2,4 -check \
		-min-speedup 5 -min-scaling 1.6 -scaling-workers 4 \
		-out /tmp/bench_rp_scaling_ci.json

# Refresh the committed BENCH_rp.json at the canonical 128x128 size.
bench-rp-json:
	$(GO) run ./cmd/benchrp -grid 128 -reps 10 -workers 1,2,4 \
		-out BENCH_rp.json

# Perf regression gate: trace short deterministic predictive and host
# reference runs, then check them against the committed budgets —
# BENCH_host.json (per-phase host costs) and BENCH_rp.json (reference
# solver per-step cost) — via obstool (exit 1 on regression). The runs
# use 32x32 grids against the baselines' 128x128 budgets, so the gate
# only trips on order-of-magnitude hot-path regressions, never on
# machine noise.
obs-gate:
	$(GO) run ./cmd/beamsim -n 5000 -grid 32 -steps 3 -kernel predictive \
		-seed 7 -trace /tmp/obs_gate_trace.jsonl > /dev/null
	$(GO) run ./cmd/beamsim -n 5000 -grid 32 -steps 3 -kernel reference \
		-seed 7 -trace /tmp/obs_gate_ref_trace.jsonl > /dev/null
	cat /tmp/obs_gate_trace.jsonl /tmp/obs_gate_ref_trace.jsonl \
		> /tmp/obs_gate_all.jsonl
	$(GO) run ./cmd/obstool gate BENCH_host.json BENCH_rp.json BENCH_gpu.json \
		/tmp/obs_gate_all.jsonl -max-regress 10%
