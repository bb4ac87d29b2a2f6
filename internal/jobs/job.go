package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"time"

	"beamdyn/internal/obs"
)

// State is a job lifecycle state. The machine is strictly forward except
// for the checkpoint/resume edge:
//
//	PENDING -> QUEUED -> RUNNING -> DONE | FAILED | CANCELLED
//	                     RUNNING -> QUEUED   (checkpointed resume)
//	           QUEUED  -> CANCELLED          (cancel, shutdown)
//	           QUEUED  -> FAILED             (shutdown during a resume)
type State string

// The job states.
const (
	StatePending   State = "PENDING"
	StateQueued    State = "QUEUED"
	StateRunning   State = "RUNNING"
	StateDone      State = "DONE"
	StateFailed    State = "FAILED"
	StateCancelled State = "CANCELLED"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// AllStates lists every state, for gauge initialisation and display.
var AllStates = []State{StatePending, StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

// Event is one entry of a job's lifecycle log, served as a JSON array by
// GET /jobs/{id}/events.
type Event struct {
	// Seq is the event's position in the job's log (0-based).
	Seq int `json:"seq"`
	// TS is the wall-clock event time.
	TS time.Time `json:"ts"`
	// Type is "state", "progress", "checkpoint", "resume" or "alert".
	Type string `json:"type"`
	// State is the post-transition state for "state" events.
	State State `json:"state,omitempty"`
	// Step is the simulation step the event refers to.
	Step int `json:"step,omitempty"`
	// Worker is the worker involved (-1 when not applicable).
	Worker int `json:"worker,omitempty"`
	// Msg is the human-readable detail.
	Msg string `json:"msg,omitempty"`
	// SigmaX/SigmaY carry the beam size on "progress" events.
	SigmaX float64 `json:"sigma_x,omitempty"`
	SigmaY float64 `json:"sigma_y,omitempty"`
}

// Result is a finished job's output: the final retarded-potential grid
// plus enough provenance to verify bitwise-identical recovery (the SHA-256
// of the grid bytes).
type Result struct {
	// Step is the final simulation step (Spec.TargetStep()).
	Step int `json:"step"`
	// NX, NY is the potential grid's resolution.
	NX int `json:"nx"`
	NY int `json:"ny"`
	// Data is the potential grid, row-major.
	Data []float64 `json:"data"`
	// SHA256 is the hex digest of the grid's IEEE-754 bytes: two runs
	// produced bitwise-identical grids iff their digests match.
	SHA256 string `json:"sha256"`
	// SigmaX, SigmaY are the final RMS beam sizes.
	SigmaX float64 `json:"sigma_x"`
	SigmaY float64 `json:"sigma_y"`
	// Attempts is the number of RUNNING episodes the job took (>1 means
	// it was checkpoint-resumed).
	Attempts int `json:"attempts"`
}

// GridDigest hashes a potential grid's dimensions and raw float64 bits;
// equal digests mean bitwise-equal grids.
func GridDigest(nx, ny int, data []float64) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(nx)<<32|uint64(ny))
	h.Write(buf[:])
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Status is the externally visible job snapshot served by the API.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State State  `json:"state"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Step is the latest completed simulation step; TargetStep is where
	// the job finishes.
	Step       int `json:"step"`
	TargetStep int `json:"target_step"`
	// Attempts counts RUNNING episodes; Workers lists the worker ids that
	// ran them, in order.
	Attempts int   `json:"attempts"`
	Workers  []int `json:"workers,omitempty"`
	// Error is the failure detail for FAILED jobs.
	Error string `json:"error,omitempty"`
	// QueueWaitSec is the total time spent QUEUED; RunSec the total time
	// spent RUNNING.
	QueueWaitSec float64 `json:"queue_wait_sec"`
	RunSec       float64 `json:"run_sec"`
	HasResult    bool    `json:"has_result"`
	// TraceID is the job's trace in the JSONL span stream (empty when the
	// control plane runs without tracing); `obstool tree -job <id>`
	// reconstructs the causal tree it names.
	TraceID string `json:"trace_id,omitempty"`
}

// Job is one managed simulation run. Its mutable state is guarded by mu,
// except the queue's seq; the Spec and ID are immutable after creation.
type Job struct {
	// ID is the control plane's job identifier ("j-000001").
	ID string
	// Spec is the normalized, validated payload.
	Spec Spec

	mu        sync.Mutex
	state     State
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	waitSec   float64
	runSec    float64

	// seq is the queue's FIFO order, assigned at first enqueue and kept
	// across resumes so a resumed job does not lose its place. It is
	// written only while the job is out of the queue and read under the
	// queue's lock.
	seq      int
	attempts int
	workers  []int

	cancelled bool
	// checkpoint is the latest step-boundary core checkpoint (gob bytes);
	// ckStep is the step it restores to.
	checkpoint []byte
	ckStep     int
	lastStep   int

	events []Event
	result *Result
	done   chan struct{}

	// waitSpan is the in-flight "jobs/queue-wait" trace span, started at
	// enqueue and ended at dispatch.
	waitSpan obs.Span
	enqueued time.Time
	runStart time.Time

	// scope is the job-scoped observer (fresh trace, job/node baggage)
	// whose spans parent under root, the job's "jobs/job" root span;
	// traceID names the trace in the JSONL stream. All are inert without
	// tracing.
	scope   *obs.Observer
	root    obs.Span
	traceID string
}

func newJob(id string, sp Spec, now time.Time) *Job {
	return &Job{
		ID:        id,
		Spec:      sp,
		state:     StatePending,
		submitted: now,
		done:      make(chan struct{}),
	}
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the failure detail ("" unless FAILED).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the finished job's output (nil until DONE).
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Attempts returns the number of RUNNING episodes so far.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// Workers returns the worker ids that ran the job, in order.
func (j *Job) Workers() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]int(nil), j.workers...)
}

// Status snapshots the job for the API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:           j.ID,
		Name:         j.Spec.Name,
		State:        j.state,
		SubmittedAt:  j.submitted,
		Step:         j.lastStep,
		TargetStep:   j.Spec.TargetStep(),
		Attempts:     j.attempts,
		Workers:      append([]int(nil), j.workers...),
		Error:        j.err,
		QueueWaitSec: j.waitSec,
		RunSec:       j.runSec,
		HasResult:    j.result != nil,
		TraceID:      j.traceID,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Events returns a copy of the lifecycle log so far.
func (j *Job) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// emitLocked appends an event to the log, closing Done at the terminal
// state. Callers hold j.mu.
func (j *Job) emitLocked(ev Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	if ev.Type == "state" && ev.State.Terminal() {
		close(j.done)
	}
}

// event appends a non-state event to the log.
func (j *Job) event(now time.Time, typ string, step, worker int, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitLocked(Event{TS: now, Type: typ, Step: step, Worker: worker, Msg: msg})
}

// progress records a completed step.
func (j *Job) progress(now time.Time, step, worker int, sx, sy float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lastStep = step
	j.emitLocked(Event{TS: now, Type: "progress", Step: step, Worker: worker, SigmaX: sx, SigmaY: sy})
}

// transition moves the job to st, logging a state event. It returns the
// previous state so callers can keep aggregate gauges consistent.
func (j *Job) transition(now time.Time, st State, worker int, msg string) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	prev := j.state
	j.state = st
	switch st {
	case StateRunning:
		j.attempts++
		j.workers = append(j.workers, worker)
		if j.started.IsZero() {
			j.started = now
		}
		j.runStart = now
		if !j.enqueued.IsZero() {
			j.waitSec += now.Sub(j.enqueued).Seconds()
			j.enqueued = time.Time{}
		}
	case StateQueued:
		j.enqueued = now
	case StateDone, StateFailed, StateCancelled:
		j.finished = now
		if !j.runStart.IsZero() {
			j.runSec += now.Sub(j.runStart).Seconds()
			j.runStart = time.Time{}
		}
		if st == StateFailed {
			j.err = msg
		}
	}
	j.emitLocked(Event{TS: now, Type: "state", State: st, Worker: worker, Step: j.lastStep, Msg: msg})
	return prev
}

// requestCancel marks the job for cancellation; a running worker notices
// at the next step boundary. Returns false when already terminal.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.cancelled = true
	return true
}

func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

// setCheckpoint stores the step-boundary checkpoint bytes.
func (j *Job) setCheckpoint(step int, data []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.checkpoint = data
	j.ckStep = step
}

// checkpointData returns the latest checkpoint (nil if none was taken).
func (j *Job) checkpointData() ([]byte, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpoint, j.ckStep
}
