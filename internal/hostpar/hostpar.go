// Package hostpar is the deterministic host-side worker pool used by the
// kernels' learning stages (PREDICT, RP-CLUSTERING, ONLINE-LEARNING), the
// shared per-point host loops, the simulation's particle cell search,
// force gather and push, and the host reference solve.
//
// The paper runs its host-side ML (k-means, kNN fits) on a multicore host
// precisely so the learning stages stay cheap relative to the GPU kernel;
// this package provides the minimum machinery to do the same here without
// giving up reproducibility:
//
//   - For splits an index range [0, n) into one contiguous sub-range per
//     worker (static partitioning — no channels, no work queue, no
//     scheduling nondeterminism) and runs the ranges concurrently. As long
//     as the body writes only to slots owned by its indices, the result is
//     bitwise identical for every worker count, including 1. It suits
//     loops whose indices cost about the same.
//   - Claim runs loops whose units differ in cost: worker w runs unit w
//     first, then claims the next unclaimed unit from a shared counter
//     until none is left, so no worker idles while another holds a
//     backlog. Which worker runs which unit depends on timing; under the
//     same contract as For (the body writes only what its unit owns, and
//     the values depend only on the unit), the result does not.
//   - Arena is a per-worker bump allocator for step-lifetime scratch
//     (predicted partitions, merged cluster partitions, quantile buffers):
//     Reset at the start of a step makes the previous step's chunks
//     reusable, so steady-state host phases allocate nothing.
//
// Every index runs on exactly one worker, so per-worker arenas never share
// slices across goroutines; the values written through them depend only on
// the index, never on the worker, which preserves the bitwise-determinism
// guarantee.
package hostpar

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values below 1 mean
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs fn over the index range [0, n) on the given number of workers
// (resolved through Workers). Worker w receives the contiguous range
// [w*n/workers, (w+1)*n/workers); ranges cover [0, n) exactly once. The
// call returns when every range has completed. With one worker (or n <=
// 1) fn runs on the calling goroutine with no synchronisation overhead.
//
// fn must confine its writes to data owned by the indices it is handed
// (or to per-worker state indexed by w); under that contract the output
// is bitwise identical for every worker count.
func For(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i, i*n/w, (i+1)*n/w)
		}(i)
	}
	fn(0, 0, n/w)
	wg.Wait()
}

// Claim runs fn once for every index in [0, n) on the given number of
// workers (resolved through Workers, and at most n). Worker w runs index w
// first; it then claims the next unclaimed index from a shared counter and
// runs it, until none is left. So every worker runs at least one index,
// each worker's indices increase, and a worker stalled on a costly index
// leaves the rest of the range to the others. The call returns when every
// index has run. With one worker fn runs over [0, n) in order on the
// calling goroutine.
//
// Which worker runs an index after its first depends on timing, so fn must
// write only data owned by its index (or per-worker state indexed by
// worker), and the values it writes must depend only on the index; the
// output is then bitwise identical for every worker count and schedule.
func Claim(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	next.Store(int64(w))
	run := func(worker int) {
		for i := worker; i < n; i = int(next.Add(1) - 1) {
			fn(worker, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	run(0)
	wg.Wait()
}

// arenaMinChunk is the smallest chunk an Arena allocates; large enough
// that a step's partitions fit in a handful of chunks, small enough that
// tiny grids don't over-commit.
const arenaMinChunk = 4096

// Arena is a bump allocator over reusable chunks. Take hands out stable
// sub-slices (they are never moved or freed until the arena is garbage);
// Reset rewinds the arena so the next step reuses the same chunks. The
// zero value is ready to use. An Arena is not safe for concurrent use —
// give each worker its own.
type Arena[T any] struct {
	chunks [][]T
	cur    int
	off    int
}

// Reset rewinds the arena; slices handed out earlier remain valid memory
// but will be overwritten by subsequent Takes, so callers must not retain
// them across a Reset.
func (a *Arena[T]) Reset() { a.cur, a.off = 0, 0 }

// Take returns a length-n slice from the arena. The contents are NOT
// zeroed (they may hold values from before the last Reset); callers must
// overwrite every element they read.
func (a *Arena[T]) Take(n int) []T {
	for a.cur < len(a.chunks) && len(a.chunks[a.cur])-a.off < n {
		a.cur++
		a.off = 0
	}
	if a.cur == len(a.chunks) {
		size := n
		if size < arenaMinChunk {
			size = arenaMinChunk
		}
		a.chunks = append(a.chunks, make([]T, size))
	}
	s := a.chunks[a.cur][a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// Copy stores a copy of src in the arena and returns the stable copy.
// Useful when a value is built by appending into a reusable scratch slice
// whose backing array will be overwritten by the next iteration.
func (a *Arena[T]) Copy(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	dst := a.Take(len(src))
	copy(dst, src)
	return dst
}

// Resize returns a slice of length n, reusing s's backing array when its
// capacity suffices. The contents are unspecified; callers must overwrite
// every element they read.
func Resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
