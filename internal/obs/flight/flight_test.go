package flight_test

import (
	"fmt"
	"sync"
	"testing"

	"beamdyn/internal/obs"
	"beamdyn/internal/obs/flight"
)

func ev(step int) obs.Event {
	return obs.Event{Name: "advance", Kind: "span", Step: step, Dur: 0.01}
}

func TestRecorderRetainsLastN(t *testing.T) {
	r := flight.New(4, nil)
	for i := 0; i < 10; i++ {
		if err := r.Emit(ev(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	for i, e := range got {
		if e.Step != 6+i {
			t.Fatalf("event %d has step %d, want %d (oldest-first order)", i, e.Step, 6+i)
		}
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", r.Total(), r.Dropped())
	}
}

func TestRecorderBelowCapacity(t *testing.T) {
	r := flight.New(8, nil)
	for i := 0; i < 3; i++ {
		r.Emit(ev(i))
	}
	got := r.Events()
	if len(got) != 3 || got[0].Step != 0 || got[2].Step != 2 {
		t.Fatalf("events = %+v", got)
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", r.Dropped())
	}
}

// TestRecorderExactlyFull pins the boundary between the two drain paths:
// after exactly depth emits the ring is full but has overwritten nothing,
// and Events must return every event, oldest first.
func TestRecorderExactlyFull(t *testing.T) {
	for _, depth := range []int{1, 4, 8} {
		r := flight.New(depth, nil)
		for i := 0; i < depth; i++ {
			r.Emit(ev(i))
		}
		got := r.Events()
		if len(got) != depth {
			t.Fatalf("depth %d: retained %d events after %d emits, want %d", depth, len(got), depth, depth)
		}
		for i, e := range got {
			if e.Step != i {
				t.Fatalf("depth %d: event %d has step %d, want %d (oldest-first order)", depth, i, e.Step, i)
			}
		}
		if r.Total() != uint64(depth) || r.Dropped() != 0 {
			t.Fatalf("depth %d: total=%d dropped=%d, want %d/0", depth, r.Total(), r.Dropped(), depth)
		}
	}
}

func TestRecorderForwardsDownstream(t *testing.T) {
	mem := flight.New(8, nil)
	r := flight.New(2, mem)
	for i := 0; i < 5; i++ {
		r.Emit(ev(i))
	}
	// The ring keeps the last 2; the downstream sink sees everything.
	if got := len(mem.Events()); got != 5 {
		t.Fatalf("forwarded %d events, want 5", got)
	}
	if got := len(r.Events()); got != 2 {
		t.Fatalf("retained %d events, want 2", got)
	}
}

type failSink struct{}

func (failSink) Emit(obs.Event) error { return fmt.Errorf("sink broke") }

func TestRecorderSurfacesForwardError(t *testing.T) {
	r := flight.New(2, failSink{})
	if err := r.Emit(ev(0)); err == nil {
		t.Fatal("forward error swallowed")
	}
	// The ring still recorded the event: telemetry loss downstream must
	// not cost the flight recorder its copy.
	if len(r.Events()) != 1 {
		t.Fatal("event lost from ring on forward error")
	}
}

func TestRecorderConcurrentEmitAndDrain(t *testing.T) {
	r := flight.New(64, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					r.Emit(ev(i))
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		if got := len(r.Events()); got > 64 {
			t.Errorf("drain %d returned %d events, cap is 64", i, got)
		}
	}
	close(stop)
	wg.Wait()
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *flight.Recorder
	if err := r.Emit(ev(0)); err != nil {
		t.Fatal(err)
	}
	if r.Events() != nil || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder not inert")
	}
}
