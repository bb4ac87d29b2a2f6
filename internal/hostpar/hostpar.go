// Package hostpar is the deterministic host-side worker pool used by the
// kernels' learning stages (PREDICT, RP-CLUSTERING, ONLINE-LEARNING), the
// shared per-point host loops, and the simulation's particle force gather
// and push.
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
//     bitwise identical for every worker count, including 1.
//   - Arena is a per-worker bump allocator for step-lifetime scratch
//     (predicted partitions, merged cluster partitions, quantile buffers):
//     Reset at the start of a step makes the previous step's chunks
//     reusable, so steady-state host phases allocate nothing.
//
// Workers own disjoint index ranges, so per-worker arenas never share
// slices across goroutines; the values written through them depend only on
// the index, never on the worker, which preserves the bitwise-determinism
// guarantee.
package hostpar

import (
	"runtime"
	"sync"
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

// Range is one worker's contiguous share of an index range, as For would
// hand it out.
type Range struct {
	Worker int
	Lo, Hi int
}

// Partition previews For's static decomposition of [0, n) across workers
// without running anything: the returned ranges are exactly the (worker,
// lo, hi) triples For(n, workers, fn) would invoke fn with. Dispatchers
// use it to decide whether a unit count is worth fanning out (a range per
// worker with fewer units than workers collapses to fewer, larger
// ranges) and tests use it to pin the decomposition.
func Partition(n, workers int) []Range {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	rs := make([]Range, w)
	for i := 0; i < w; i++ {
		rs[i] = Range{Worker: i, Lo: i * n / w, Hi: (i + 1) * n / w}
	}
	return rs
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
