package hostpar

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

// Every index must be visited exactly once, for any worker count,
// including counts above n and the inline single-worker path.
func TestForCoversExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, w := range []int{1, 2, 3, 8, 1001} {
			visits := make([]int32, n)
			For(n, w, func(worker, lo, hi int) {
				if lo > hi || lo < 0 || hi > n {
					t.Fatalf("n=%d w=%d: bad range [%d,%d)", n, w, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, v)
				}
			}
		}
	}
}

// Worker ranges must be a deterministic function of (n, workers) alone:
// at most n workers, worker w handed exactly [w*n/workers, (w+1)*n/workers),
// the ranges contiguous and in worker order, for worker counts below, at
// and above n.
func TestForStaticPartition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 103, 1000} {
		for _, w := range []int{1, 2, 3, 7, 8, 1001} {
			var mu sync.Mutex
			got := map[int][2]int{}
			For(n, w, func(worker, lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[worker]; dup {
					t.Errorf("n=%d w=%d: worker %d ran twice", n, w, worker)
				}
				got[worker] = [2]int{lo, hi}
			})
			active := min(w, n)
			if len(got) != active {
				t.Fatalf("n=%d w=%d: %d workers ran, want %d", n, w, len(got), active)
			}
			prev := 0
			for worker := 0; worker < active; worker++ {
				r, ok := got[worker]
				if want := [2]int{worker * n / active, (worker + 1) * n / active}; !ok || r != want {
					t.Fatalf("n=%d w=%d: worker %d ran %v (ran: %v), want %v", n, w, worker, r, ok, want)
				}
				if r[0] != prev || r[1] < r[0] {
					t.Fatalf("n=%d w=%d: worker %d range %v does not continue at %d", n, w, worker, r, prev)
				}
				prev = r[1]
			}
			if prev != n {
				t.Fatalf("n=%d w=%d: ranges end at %d, want %d", n, w, prev, n)
			}
		}
	}
}

// Writing results by index must produce identical output for any worker
// count — the contract every kernel host phase relies on.
func TestForDeterministicByIndex(t *testing.T) {
	const n = 513
	ref := make([]float64, n)
	For(n, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ref[i] = float64(i) * 1.5
		}
	})
	for _, w := range []int{2, 3, 5, 16} {
		got := make([]float64, n)
		For(n, w, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				got[i] = float64(i) * 1.5
			}
		})
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: index %d differs", w, i)
			}
		}
	}
}

func TestArenaTakeAndCopy(t *testing.T) {
	var a Arena[float64]
	s1 := a.Take(3)
	for i := range s1 {
		s1[i] = float64(i)
	}
	s2 := a.Copy([]float64{9, 8})
	// s1 must not alias s2.
	if &s1[0] == &s2[0] {
		t.Fatal("Take and Copy alias")
	}
	if s1[0] != 0 || s1[2] != 2 || s2[0] != 9 || s2[1] != 8 {
		t.Fatalf("contents clobbered: %v %v", s1, s2)
	}
	if got := a.Copy(nil); got != nil {
		t.Fatalf("Copy(nil) = %v", got)
	}
	// A request larger than the chunk size must still be satisfied.
	big := a.Take(3 * arenaMinChunk)
	if len(big) != 3*arenaMinChunk {
		t.Fatalf("big Take len %d", len(big))
	}
}

// After Reset the arena must reuse its chunks instead of allocating.
func TestArenaSteadyStateAllocFree(t *testing.T) {
	var a Arena[float64]
	fill := func() {
		a.Reset()
		for i := 0; i < 100; i++ {
			s := a.Take(37)
			s[0] = 1
		}
	}
	fill() // grow chunks
	allocs := testing.AllocsPerRun(10, fill)
	if allocs != 0 {
		t.Errorf("steady-state Take allocated %.1f times per run", allocs)
	}
}

// Take slices must be capacity-capped so an append cannot bleed into the
// next allocation.
func TestArenaTakeCapped(t *testing.T) {
	var a Arena[int]
	s := a.Take(4)
	next := a.Take(1)
	next[0] = 42
	s = append(s, 7) // must reallocate, not overwrite next
	if next[0] != 42 {
		t.Fatal("append past Take overwrote the next allocation")
	}
	_ = s
}

func TestResize(t *testing.T) {
	s := make([]int, 4, 16)
	r := Resize(s, 10)
	if len(r) != 10 || &r[0] != &s[0] {
		t.Fatal("Resize should reuse capacity")
	}
	r2 := Resize(s, 32)
	if len(r2) != 32 {
		t.Fatal("Resize growth")
	}
}

// Claim must run every index exactly once, start worker w at index w and
// hand each worker increasing indices, for unit counts around the worker
// count and well above it, including the inline single-worker path.
func TestClaimContract(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7} {
		for _, n := range []int{0, 1, w - 1, w, w + 1, 1000} {
			visits := make([]int32, n)
			seq := make([][]int, w)
			Claim(n, w, func(worker, i int) {
				if worker < 0 || worker >= w || i < 0 || i >= n {
					t.Errorf("n=%d w=%d: worker %d ran index %d", n, w, worker, i)
					return
				}
				atomic.AddInt32(&visits[i], 1)
				seq[worker] = append(seq[worker], i)
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d w=%d: index %d ran %d times", n, w, i, v)
				}
			}
			active := min(w, n)
			for worker, got := range seq {
				if worker >= active {
					if len(got) != 0 {
						t.Fatalf("n=%d w=%d: surplus worker %d ran %v", n, w, worker, got)
					}
					continue
				}
				if len(got) == 0 || got[0] != worker {
					t.Fatalf("n=%d w=%d: worker %d ran %d indices, want index %d first", n, w, worker, len(got), worker)
				}
				for k := 1; k < len(got); k++ {
					if got[k] <= got[k-1] {
						t.Fatalf("n=%d w=%d: worker %d ran %d after %d", n, w, worker, got[k], got[k-1])
					}
				}
			}
		}
	}
}

// A worker stalled on its first index must hold no other: the rest of the
// range drains through the remaining worker, which a static split into
// halves could not do.
func TestClaimStalledWorker(t *testing.T) {
	const n = 50
	done := make(chan int, n)
	var first []int
	Claim(n, 2, func(worker, i int) {
		if worker == 1 {
			done <- i
			return
		}
		first = append(first, i)
		if i != 0 {
			return
		}
		for k := 1; k < n; k++ {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Errorf("worker 1 ran %d of the %d other indices, then stopped", k-1, n-1)
				return
			}
		}
	})
	if len(first) != 1 {
		t.Fatalf("worker 0 ran %d indices, want only index 0", len(first))
	}
}
