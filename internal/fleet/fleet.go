// Package fleet runs the compute-potentials stage across several
// simulated GPUs behind a device-manager abstraction with lifecycle
// states and injectable health events. It is the repository's one
// multi-device path.
//
//   - Manager — a device registry holding *gpusim.Device handles with the
//     lifecycle states Healthy / Degraded / Draining / Failed. Fixed is
//     the real implementation (states change administratively);
//     Injectable is the testing fake that accepts scripted health events
//     (mid-step failure, slowdown factor, recover-at-step) in the style
//     of GPU-manager fakes used by fleet-management systems.
//   - Fleet — a kernels.Algorithm that splits the target grid's rows into
//     contiguous bands (by default one per device, the static split of
//     the multi-GPU predecessor [10]), places them
//     longest-processing-time-first by band rows times device slowdown,
//     runs each device's queue on its own goroutine, and re-places the
//     bands of a device that fails mid-step over the survivors.
//
// Placement depends only on band rows and device slowdowns, and each
// device runs its queue in order, so a step's output depends only on its
// inputs and the manager's health script. Fleet metrics (bands
// dispatched / retried, device state transitions, per-device utilization)
// are emitted through the obs registry when an observer is attached.
package fleet

import (
	"errors"
	"fmt"

	"beamdyn/internal/gpusim"
)

// State is a device lifecycle state.
type State int

// The device lifecycle. Healthy and Degraded devices accept work
// (Degraded devices run slowed by their slowdown factor); Draining
// devices finish nothing new; Failed devices are gone for good unless a
// recover event revives them.
const (
	Healthy State = iota
	Degraded
	Draining
	Failed
)

// String returns the state's name.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Draining:
		return "draining"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Schedulable reports whether a device in this state accepts new bands.
func (s State) Schedulable() bool { return s == Healthy || s == Degraded }

// Transition records one device state change.
type Transition struct {
	// Step is the simulation step during which the transition happened.
	Step int
	// Device is the device index.
	Device int
	// From and To are the states before and after.
	From, To State
	// Reason is a human-readable cause ("scripted failure", "drain", ...).
	Reason string
}

// Errors returned by Manager.ExecBand. ErrUnavailable means the device
// refused the band before running it (no work was lost); ErrMidBand means
// the device died while the band ran and its results must be discarded.
var (
	ErrUnavailable = errors.New("device unavailable")
	ErrMidBand     = errors.New("device failed mid-band")
)

// Manager is the device-fleet registry the scheduler runs against. The
// real implementation is Fixed; Injectable is the scripted fake for
// fault-injection tests. Implementations must be safe for concurrent use
// by the per-device scheduler workers.
type Manager interface {
	// NumDevices returns the registry size, counting devices in every
	// state.
	NumDevices() int
	// Device returns the simulated-GPU handle of device id.
	Device(id int) *gpusim.Device
	// State returns device id's current lifecycle state.
	State(id int) State
	// Slowdown returns the multiplicative simulated-time factor of device
	// id (1 for a healthy device, >1 for a degraded one).
	Slowdown(id int) float64
	// BeginStep tells the manager that simulation step step is starting,
	// so scripted health events due at the step boundary can fire.
	BeginStep(step int)
	// ExecBand runs one band's kernel work fn on device id. It returns
	// ErrUnavailable without calling fn when the device cannot accept
	// work, and ErrMidBand after calling fn when the device failed while
	// the band ran (the caller must discard fn's results and retry the
	// band elsewhere).
	ExecBand(id int, fn func(dev *gpusim.Device)) error
	// SetState administratively transitions device id (e.g. draining a
	// device for maintenance).
	SetState(id int, s State, reason string)
	// Transitions returns a copy of every recorded state transition, in
	// order.
	Transitions() []Transition
}
