package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"beamdyn/internal/grid"
	"beamdyn/internal/particles"
)

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// checkpoint is the serialised simulation state. Kernel-internal state
// (trained predictors, remembered partitions) is deliberately excluded:
// each kernel rebuilds it within one bootstrap step, and excluding it
// keeps checkpoints portable across kernel choices.
type checkpoint struct {
	Version   int
	Cfg       Config
	Step      int
	CX, CY    float64
	Dropped   int
	Particles []particles.Particle
	Grids     []gridSnapshot
}

// gridSnapshot serialises one history grid.
type gridSnapshot struct {
	NX, NY, Comp   int
	X0, Y0, DX, DY float64
	Step           int
	Data           []float64
}

// check reports why gs cannot be a history grid of a simulation with
// configuration cfg: its shape must be the config's, its components the
// deposited moments, its spacing finite and positive and its data complete.
func (gs *gridSnapshot) check(cfg *Config) error {
	switch {
	case gs.NX != cfg.NX || gs.NY != cfg.NY:
		return fmt.Errorf("core: checkpoint grid of step %d is %dx%d, the config's is %dx%d",
			gs.Step, gs.NX, gs.NY, cfg.NX, cfg.NY)
	case gs.Comp != grid.MomentComponents:
		return fmt.Errorf("core: checkpoint grid of step %d has %d components, want %d",
			gs.Step, gs.Comp, grid.MomentComponents)
	case !(gs.DX > 0) || !(gs.DY > 0) || math.IsInf(gs.DX, 1) || math.IsInf(gs.DY, 1):
		return fmt.Errorf("core: checkpoint grid of step %d has spacing %g x %g, want finite and positive",
			gs.Step, gs.DX, gs.DY)
	case len(gs.Data) != gs.NX*gs.NY*gs.Comp:
		return fmt.Errorf("core: checkpoint grid of step %d holds %d values, want %d",
			gs.Step, len(gs.Data), gs.NX*gs.NY*gs.Comp)
	}
	return nil
}

// Save writes the simulation state (configuration, particles, grid
// history, step counter) to w in gob format.
func (s *Simulation) Save(w io.Writer) error {
	cp := checkpoint{
		Version:   checkpointVersion,
		Cfg:       s.Cfg,
		Step:      s.Step,
		CX:        s.cx,
		CY:        s.cy,
		Dropped:   s.dropped,
		Particles: s.Ensemble.P,
	}
	for step := s.Hist.Oldest(); step >= 0 && step <= s.Hist.Latest(); step++ {
		g := s.Hist.At(step)
		if g == nil {
			continue
		}
		cp.Grids = append(cp.Grids, gridSnapshot{
			NX: g.NX, NY: g.NY, Comp: g.Comp,
			X0: g.X0, Y0: g.Y0, DX: g.DX, DY: g.DY,
			Step: g.Step, Data: g.Data,
		})
	}
	return gob.NewEncoder(w).Encode(&cp)
}

// Load restores a simulation saved with Save. The returned simulation has
// no kernel attached (set Algo afterwards); its next Advance continues
// from the checkpointed step. A config that Validate rejects is an error,
// and so is a history grid whose shape, components, spacing or data
// length does not fit the config, or whose step does not follow the
// previous grid's.
func Load(r io.Reader) (*Simulation, error) {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	cfg := cp.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("checkpoint config: %w", err)
	}
	cfg.fillDefaults()
	s := &Simulation{
		Cfg:      cfg,
		Ensemble: &particles.Ensemble{P: cp.Particles, Beam: cfg.Beam},
		Hist:     grid.NewHistory(cfg.Kappa + 4),
		Step:     cp.Step,
		cx:       cp.CX,
		cy:       cp.CY,
		dropped:  cp.Dropped,
	}
	for i := range cp.Grids {
		gs := &cp.Grids[i]
		if err := gs.check(&cfg); err != nil {
			return nil, err
		}
		if gs.Step < 0 || i > 0 && gs.Step != s.Hist.Latest()+1 {
			return nil, fmt.Errorf("core: checkpoint grids out of order: step %d after step %d", gs.Step, s.Hist.Latest())
		}
		g := grid.New(gs.NX, gs.NY, gs.Comp, gs.X0, gs.Y0, gs.DX, gs.DY)
		g.Step = gs.Step
		copy(g.Data, gs.Data)
		s.Hist.Push(g)
	}
	if s.Hist.Latest() >= 0 && s.Hist.Latest() != cp.Step-1 {
		return nil, fmt.Errorf("core: checkpoint history ends at step %d, expected %d",
			s.Hist.Latest(), cp.Step-1)
	}
	return s, nil
}
