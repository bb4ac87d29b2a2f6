package jobs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/retard"
)

// smallSpec is a fast single-device job for dispatcher tests.
func smallSpec(name string) Spec {
	sp := Spec{
		Name:   name,
		Beam:   BeamSpec{Particles: 2000, ChargeC: 1e-9, SigmaX: 1e-4, SigmaY: 5e-5, EnergyEV: 4.3e9},
		Grid:   GridSpec{NX: 16},
		Steps:  2,
		Kernel: "twophase",
		Kappa:  4,
		Seed:   7,
	}
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		panic(err)
	}
	return sp
}

// fleetSpec is a two-device Two-Phase-RP fleet job with 8 pinned bands.
func fleetSpec(name string) Spec {
	sp := Spec{
		Name:   name,
		Beam:   BeamSpec{Particles: 2000, ChargeC: 1e-9, SigmaX: 1e-4, SigmaY: 5e-5, EnergyEV: 4.3e9},
		Grid:   GridSpec{NX: 16},
		Steps:  3,
		Kernel: "twophase",
		Kappa:  4,
		Seed:   7,
		Fleet:  &FleetSpec{Devices: 2, Bands: 8},
	}
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		panic(err)
	}
	return sp
}

// panicOnce is Two-Phase-RP that panics on its first band of step
// panicStep when armed. The resume test arms only device 1 of a job's
// first attempt (buildSim labels devices <job>-a<attempt>-dev<id>), so
// the resumed attempt runs the plain kernel.
type panicOnce struct {
	*kernels.TwoPhase
	armed bool
}

const panicStep = 8

func (k *panicOnce) Step(p *retard.Problem, target *grid.Grid, comp int) *kernels.StepResult {
	if k.armed && target.Step == panicStep {
		k.armed = false
		panic(fmt.Sprintf("test kernel panic at step %d", target.Step))
	}
	return k.TwoPhase.Step(p, target, comp)
}

// waitRunning waits until j has been popped off the queue.
func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.State() == StateQueued || j.State() == StatePending {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started (state %s)", j.ID, j.State())
		}
		time.Sleep(time.Millisecond)
	}
}

func waitDone(t *testing.T, j *Job) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish (state %s, step %d)", j.ID, j.State(), j.Status().Step)
	}
	return j.Status()
}

func TestServerRunsJobToDone(t *testing.T) {
	observer := obs.New()
	s := New(Config{Workers: 1, Obs: observer})
	defer s.Close()

	j, err := s.Submit(smallSpec("simple"))
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want DONE", st.State, st.Error)
	}
	if st.Attempts != 1 || len(st.Workers) != 1 {
		t.Errorf("attempts = %d workers = %v, want one clean episode", st.Attempts, st.Workers)
	}
	res := j.Result()
	if res == nil {
		t.Fatal("DONE job has no result")
	}
	if res.Step != j.Spec.TargetStep() {
		t.Errorf("result step = %d, want %d", res.Step, j.Spec.TargetStep())
	}
	if res.SHA256 == "" || len(res.Data) != res.NX*res.NY {
		t.Errorf("result grid malformed: sha=%q len=%d", res.SHA256, len(res.Data))
	}
	if res.SigmaX <= 0 || res.SigmaY <= 0 {
		t.Errorf("result beam sizes = (%g, %g), want positive", res.SigmaX, res.SigmaY)
	}

	// Lifecycle: QUEUED -> RUNNING -> DONE with progress along the way.
	var states []State
	progress := 0
	for _, ev := range j.Events() {
		switch ev.Type {
		case "state":
			states = append(states, ev.State)
		case "progress":
			progress++
		}
	}
	want := []State{StateQueued, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("state events = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state events = %v, want %v", states, want)
		}
	}
	if progress == 0 {
		t.Error("no progress events")
	}

	// Metrics: submit/complete counters and the wait histogram moved.
	reg := observer.Reg
	if got := reg.Counter("jobs_submitted_total").Value(); got != 1 {
		t.Errorf("jobs_submitted_total = %d, want 1", got)
	}
	if got := reg.Counter("jobs_completed_total", obs.Label{Key: "state", Value: "done"}).Value(); got != 1 {
		t.Errorf("jobs_completed_total{done} = %d, want 1", got)
	}
	if got := reg.Histogram("jobs_queue_wait_seconds", jobsWaitBuckets).Count(); got != 1 {
		t.Errorf("jobs_queue_wait_seconds count = %d, want 1", got)
	}
}

// TestChaosResumeBitwiseIdentical is the E2E recovery guarantee: a job
// whose kernel panics on one fleet device mid-run is re-queued and
// resumed from its latest checkpoint on fresh devices — and its final
// potential grid is bitwise-identical to the same job run without the
// panic. It runs with pinned bands and with bands unset (one band per
// device), since a resumed attempt keeps the spec's device count either
// way.
func TestChaosResumeBitwiseIdentical(t *testing.T) {
	const kernel = "twophase-panic-once"
	kernelNames[kernel] = func(d *gpusim.Device) kernels.Algorithm {
		return &panicOnce{TwoPhase: kernels.NewTwoPhase(d), armed: strings.HasSuffix(d.Label(), "-a1-dev1")}
	}
	t.Cleanup(func() { delete(kernelNames, kernel) })
	for _, tc := range []struct {
		name  string
		bands int
	}{{"pinned bands", 8}, {"bands unset", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			// Baseline: the same physics with the plain kernel.
			obsBase := obs.New()
			base := New(Config{Workers: 2, Obs: obsBase})
			bsp := fleetSpec("baseline")
			bsp.Fleet.Bands = tc.bands
			bj, err := base.Submit(bsp)
			if err != nil {
				t.Fatal(err)
			}
			bst := waitDone(t, bj)
			base.Close()
			if bst.State != StateDone {
				t.Fatalf("baseline state = %s (err %q)", bst.State, bst.Error)
			}
			baseRes := bj.Result()

			// Chaos: device 1 panics in its first band of step 8 (mid-run:
			// target step is 10), so the job resumes from its step-8
			// checkpoint.
			observer := obs.New()
			s := New(Config{Workers: 2, Obs: observer})
			defer s.Close()
			csp := fleetSpec("chaos")
			csp.Kernel = kernel
			csp.Fleet.Bands = tc.bands
			if err := csp.Validate(); err != nil {
				t.Fatal(err)
			}
			j, err := s.Submit(csp)
			if err != nil {
				t.Fatal(err)
			}
			st := waitDone(t, j)
			if st.State != StateDone {
				t.Fatalf("chaos job state = %s (err %q), want DONE despite the panic", st.State, st.Error)
			}
			if st.Attempts != 2 || len(st.Workers) != 2 {
				t.Fatalf("attempts = %d on workers %v, want 2 (one panic, one resume)", st.Attempts, st.Workers)
			}

			res := j.Result()
			if res.Attempts != 2 {
				t.Errorf("result attempts = %d, want 2", res.Attempts)
			}
			if res.SHA256 != baseRes.SHA256 {
				t.Fatalf("recovered grid differs from the uninterrupted run:\n  chaos    %s\n  baseline %s",
					res.SHA256, baseRes.SHA256)
			}
			for i := range res.Data {
				if res.Data[i] != baseRes.Data[i] {
					t.Fatalf("grid differs at %d: %g vs %g", i, res.Data[i], baseRes.Data[i])
				}
			}

			// The lifecycle must show the checkpoint and the resume from it.
			var haveCheckpoint, haveResume bool
			var states []State
			for _, ev := range j.Events() {
				switch ev.Type {
				case "checkpoint":
					haveCheckpoint = true
				case "resume":
					haveResume = true
					if ev.Step != 8 {
						t.Errorf("resume restored the step-%d checkpoint, want step 8 (%q)", ev.Step, ev.Msg)
					}
				case "state":
					states = append(states, ev.State)
				}
			}
			if !haveCheckpoint || !haveResume {
				t.Errorf("lifecycle lacks checkpoint/resume events: checkpoint=%t resume=%t", haveCheckpoint, haveResume)
			}
			wantStates := []State{StateQueued, StateRunning, StateQueued, StateRunning, StateDone}
			if len(states) != len(wantStates) {
				t.Fatalf("state sequence = %v, want %v", states, wantStates)
			}
			for i := range wantStates {
				if states[i] != wantStates[i] {
					t.Fatalf("state sequence = %v, want %v", states, wantStates)
				}
			}
			if got := observer.Reg.Counter("jobs_resumes_total").Value(); got != 1 {
				t.Errorf("jobs_resumes_total = %d, want 1", got)
			}
			if got := observer.Reg.Counter("jobs_checkpoints_total").Value(); got == 0 {
				t.Error("jobs_checkpoints_total = 0, want > 0")
			}
		})
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// A zero-worker pool would be ideal; instead occupy the single worker
	// with a long job so the second one stays queued.
	s := New(Config{Workers: 1})
	defer s.Close()
	long := smallSpec("long")
	long.Steps = 50
	blocker, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(smallSpec("queued"))
	if err != nil {
		t.Fatal(err)
	}
	changed, err := s.Cancel(queued.ID)
	if err != nil || !changed {
		t.Fatalf("Cancel(queued) = %t, %v", changed, err)
	}
	st := waitDone(t, queued)
	if st.State != StateCancelled {
		t.Fatalf("state = %s, want CANCELLED", st.State)
	}
	if st.Attempts != 0 {
		t.Errorf("cancelled-from-queue job ran %d times", st.Attempts)
	}
	if changed, _ := s.Cancel(blocker.ID); !changed {
		t.Error("cancel of the running blocker rejected")
	}
	bst := waitDone(t, blocker)
	if bst.State != StateCancelled {
		t.Fatalf("blocker state = %s, want CANCELLED at a step boundary", bst.State)
	}
	if bst.Step >= long.TargetStep() {
		t.Errorf("blocker finished all %d steps despite cancellation", long.TargetStep())
	}
}

func TestCloseCancelsQueuedJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	long := smallSpec("long")
	long.Steps = 50
	blocker, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// With the only worker busy on the blocker, the second job stays
	// queued until Close drains it.
	waitRunning(t, blocker)
	queued, err := s.Submit(smallSpec("queued"))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the blocker only once the drain has settled the queued job,
	// so Close does not wait half a minute and the worker can never pop
	// the queued job first.
	go func() {
		select {
		case <-queued.Done():
		case <-time.After(30 * time.Second):
		}
		s.Cancel(blocker.ID)
	}()
	s.Close()
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("queued job after Close = %s, want CANCELLED", st)
	}
	if _, err := s.Submit(smallSpec("late")); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestListOrder(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	names := []string{"a", "b", "c"}
	for _, n := range names {
		if _, err := s.Submit(smallSpec(n)); err != nil {
			t.Fatal(err)
		}
	}
	sts := s.List()
	if len(sts) != len(names) {
		t.Fatalf("List returned %d jobs, want %d", len(sts), len(names))
	}
	for i, st := range sts {
		if st.Name != names[i] {
			t.Errorf("List[%d] = %s, want submission order %v", i, st.Name, names)
		}
	}
	for _, st := range sts {
		waitDone(t, s.Get(st.ID))
	}
}
