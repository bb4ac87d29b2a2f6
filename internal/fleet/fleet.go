// Package fleet runs the compute-potentials stage across several
// simulated GPUs. It is the repository's one multi-device path: the
// static split of grid rows over devices of the multi-GPU predecessor
// [10].
//
// A Fleet is a kernels.Algorithm that splits the target grid's rows into
// contiguous bands (by default one per device), places them
// longest-processing-time-first by band rows, runs each device's queue on
// its own goroutine and reassembles the bands in row order. The step's
// simulated time is the busiest device's: the devices run concurrently.
//
// Placement depends only on band rows, and each device runs its queue in
// order, so a step's output depends only on its inputs. Fleet metrics
// (steps, bands dispatched, per-device busy time and utilization) are
// emitted through the obs registry when an observer is attached.
package fleet

// MaxDevices bounds the device count job specs and beamsim -devices may
// ask for: 8x the scaling study's largest fleet. Each simulated K40
// allocates about 845 KB when built, so a full fleet stays near 54 MB.
const MaxDevices = 64
