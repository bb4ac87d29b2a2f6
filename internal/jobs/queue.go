package jobs

import (
	"errors"
	"slices"
	"sync"
)

// ErrClosed means the control plane is shutting down; the HTTP layer maps
// it to 503.
var ErrClosed = errors.New("jobs: control plane closed")

// queue is the FIFO feeding the dispatch workers, ordered by admission
// sequence number. All methods are safe for concurrent use; pop blocks
// until work is available or the queue closes.
type queue struct {
	mu      sync.Mutex
	changed sync.Cond // broadcast when a job arrives or the queue closes
	items   []*Job
	closed  bool
	seq     int
}

func newQueue() *queue {
	q := &queue{}
	q.changed.L = &q.mu
	return q
}

// push enqueues j. A new job is numbered after every job admitted before
// it; a resumed job keeps its number, so it does not lose its FIFO place.
func (q *queue) push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if j.seq == 0 {
		q.seq++
		j.seq = q.seq
	}
	q.items = append(q.items, j)
	q.changed.Broadcast()
	return nil
}

// pop blocks until a job is available and returns the one admitted first,
// or returns nil when the queue closes.
func (q *queue) pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed {
		if len(q.items) > 0 {
			best := 0
			for i, j := range q.items {
				if j.seq < q.items[best].seq {
					best = i
				}
			}
			j := q.items[best]
			q.items = slices.Delete(q.items, best, best+1)
			return j
		}
		q.changed.Wait()
	}
	return nil
}

// remove takes j out of the queue (cancellation of a queued job),
// reporting whether it was still queued.
func (q *queue) remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := slices.Index(q.items, j)
	if i < 0 {
		return false
	}
	q.items = slices.Delete(q.items, i, i+1)
	return true
}

// depth returns the number of queued jobs.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// drain closes the queue, waking every blocked pop, and returns the jobs
// still queued (the server cancels them on shutdown).
func (q *queue) drain() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	out := q.items
	q.items = nil
	q.changed.Broadcast()
	return out
}
