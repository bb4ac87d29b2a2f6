package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"

	"beamdyn/internal/core"
	"beamdyn/internal/grid"
	"beamdyn/internal/retard"
)

// A step's potentials pass when their relative L2 deviation from the
// reference, ||potential - reference|| / ||reference||, is at most maxL2Err
// (the 0.02 the kernel unit tests use) and no single point deviates by more
// than maxRelErr of max |reference|. At 128x128 Predictive-RP's L2
// deviation is 0.0113-0.0136 over 144 bunch seeds, but its pointwise
// maximum, set by a few points near the bunch core, ranges from 0.046 to
// 0.111 (99% of points stay within 0.016), so the pointwise bound only
// catches a gross error at one point. Two-Phase-RP matches the reference to
// 1e-15. The exact maximum is reported as pot_rel_err.
const (
	maxL2Err  = 0.02
	maxRelErr = 0.25
)

// identitySteps is how many measured steps the identity figures cover:
// every run makes at least this many, so runs of the same code and seed
// report identical checksums, digests and exact counts whatever their
// length.
const identitySteps = 4

// checker verifies each measured step's potentials against an independent
// host-reference solve of the same problem, outside the timed Advance.
type checker struct {
	solver  retard.GridSolver
	ref     *grid.Grid
	checked int

	// Identity figures over the first identitySteps checked steps.
	relErr   float64 // max pointwise relative deviation from the reference
	l2Err    float64 // max relative L2 deviation from the reference
	simSec   float64 // summed simulated K40 seconds
	fallback int     // summed safety-net entries
	potHash  hash.Hash
	metHash  hash.Hash
}

func newChecker() *checker {
	return &checker{potHash: sha256.New(), metHash: sha256.New()}
}

// check compares the step's potentials with a GridSolver solve of
// retard.NewProblem(sim.Hist, sim.Params()) and reports whether they are
// finite and within maxL2Err and maxRelErr of it. A failed step is reported
// on standard error.
func (c *checker) check(sim *core.Simulation) bool {
	c.checked++
	pot := sim.Potential
	ok := pot != nil && allFinite(pot.Data)
	var rel, l2 float64
	if ok {
		if c.ref == nil || len(c.ref.Data) != pot.NX*pot.NY {
			c.ref = grid.New(pot.NX, pot.NY, 1, pot.X0, pot.Y0, pot.DX, pot.DY)
		}
		c.ref.X0, c.ref.Y0, c.ref.DX, c.ref.DY, c.ref.Step = pot.X0, pot.Y0, pot.DX, pot.DY, pot.Step
		c.solver.Workers = sim.Cfg.HostWorkers
		c.solver.Solve(retard.NewProblem(sim.Hist, sim.Params()), c.ref, 0)
		rel, l2 = relDev(pot.Data, c.ref.Data)
		ok = l2 <= maxL2Err && rel <= maxRelErr
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "advbench: step %d failed its check: potentials present %t, finite %t, L2 deviation %g (bound %g), max deviation %g (bound %g)\n",
			c.checked, pot != nil, pot != nil && allFinite(pot.Data), l2, maxL2Err, rel, maxRelErr)
	}
	if c.checked <= identitySteps {
		c.relErr = math.Max(c.relErr, rel)
		c.l2Err = math.Max(c.l2Err, l2)
		if pot != nil {
			var b [8]byte
			for _, v := range pot.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				c.potHash.Write(b[:])
			}
		}
		if sim.Last != nil {
			c.simSec += sim.Last.Metrics.Time
			c.fallback += sim.Last.FallbackEntries
			// %#v prints every field, unexported ones included, with floats
			// in shortest round-trip form: equal digests mean ==-equal Metrics.
			fmt.Fprintf(c.metHash, "%#v\n", sim.Last.Metrics)
		}
	}
	return ok
}

// relDev returns max |a - ref| / max |ref| and ||a - ref|| / ||ref||; a
// zero or non-finite reference yields +Inf for both, which fails every
// bound.
func relDev(a, ref []float64) (maxRel, l2Rel float64) {
	var scale, worst, dd, rr float64
	for i, r := range ref {
		d := a[i] - r
		scale = math.Max(scale, math.Abs(r))
		worst = math.Max(worst, math.Abs(d))
		dd += d * d
		rr += r * r
	}
	if scale == 0 || !allFinite(ref) {
		return math.Inf(1), math.Inf(1)
	}
	return worst / scale, math.Sqrt(dd / rr)
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// idSteps returns how many checked steps the identity figures cover.
func (c *checker) idSteps() float64 { return float64(min(c.checked, identitySteps)) }

// simSecPerStep is the mean simulated K40 time of the identity steps (0
// for the host reference).
func (c *checker) simSecPerStep() float64 { return ratio(c.simSec, c.idSteps()) }

// identity returns the run's identity record.
func (c *checker) identity(kernel bool) map[string]any {
	id := map[string]any{
		"steps":            c.idSteps(),
		"pot_rel_err":      c.relErr,
		"pot_rel_l2":       c.l2Err,
		"potential_sha256": hex.EncodeToString(c.potHash.Sum(nil)),
	}
	if kernel {
		id["sim_s_per_step"] = c.simSecPerStep()
		id["fallback_entries_per_step"] = ratio(float64(c.fallback), c.idSteps())
		id["metrics_sha256"] = hex.EncodeToString(c.metHash.Sum(nil))
	}
	return id
}
