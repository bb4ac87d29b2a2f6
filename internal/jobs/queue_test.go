package jobs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testSpec builds a minimal valid spec for queue-level tests (the queue
// never runs it).
func testSpec(name string) Spec {
	sp := Spec{
		Name:   name,
		Beam:   BeamSpec{Particles: 100, ChargeC: 1e-9, SigmaX: 1e-4, SigmaY: 5e-5, EnergyEV: 1e9},
		Grid:   GridSpec{NX: 8},
		Steps:  1,
		Kernel: "twophase",
	}
	sp.Normalize()
	return sp
}

func TestQueueFIFO(t *testing.T) {
	q := newQueue()
	now := time.Now()
	first := newJob("first", testSpec("first"), now)
	second := newJob("second", testSpec("second"), now)
	third := newJob("third", testSpec("third"), now)
	want := []*Job{first, second, third}
	for _, j := range want {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		got := q.pop()
		if got != w {
			t.Fatalf("pop %d = %s, want %s (submission order)", i, got.ID, w.ID)
		}
	}
}

func TestQueueResumeKeepsFIFOPlace(t *testing.T) {
	q := newQueue()
	now := time.Now()
	first := newJob("first", testSpec("first"), now)
	second := newJob("second", testSpec("second"), now)
	if err := q.push(first); err != nil {
		t.Fatal(err)
	}
	if err := q.push(second); err != nil {
		t.Fatal(err)
	}
	got := q.pop()
	if got != first {
		t.Fatalf("pop = %s, want first", got.ID)
	}
	// first resumes: it keeps seq 1 and outranks second.
	if err := q.push(first); err != nil {
		t.Fatal(err)
	}
	if got := q.pop(); got != first {
		t.Fatalf("resume lost its FIFO place: pop = %s", got.ID)
	}
}

func TestQueueDrainWakesBlockedPop(t *testing.T) {
	q := newQueue()
	done := make(chan *Job, 1)
	go func() { done <- q.pop() }()
	time.Sleep(10 * time.Millisecond) // let the pop block
	q.drain()
	select {
	case j := <-done:
		if j != nil {
			t.Fatalf("pop after drain = %v, want nil", j)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not wake on drain")
	}
}

// TestQueueCancellationRaces hammers push/remove/pop concurrently; run
// under -race this is the queue's data-race proof. Every job is either
// popped exactly once or removed exactly once, never both.
func TestQueueCancellationRaces(t *testing.T) {
	q := newQueue()
	const n = 200
	jobsCh := make(chan *Job, n)
	var popped, removed atomic.Int32

	var wg sync.WaitGroup
	// Poppers: two workers draining until close.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				j := q.pop()
				if j == nil {
					return
				}
				popped.Add(1)
				j.transition(time.Now(), StateDone, id, "popped")
			}
		}(w)
	}
	// Cancellers: race remove against the poppers.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobsCh {
				if q.remove(j) {
					removed.Add(1)
					j.transition(time.Now(), StateCancelled, -1, "removed")
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		j := newJob("x", testSpec("x"), time.Now())
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			jobsCh <- j
		}
	}
	close(jobsCh)
	// Let the poppers drain what the cancellers left, then close.
	for q.depth() > 0 {
		time.Sleep(time.Millisecond)
	}
	q.drain()
	wg.Wait()
	if got := popped.Load() + removed.Load(); got != n {
		t.Fatalf("popped %d + removed %d = %d, want every job accounted for (%d)",
			popped.Load(), removed.Load(), got, n)
	}
}
