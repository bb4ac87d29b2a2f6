package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/flight"
)

func TestCheckpointRoundTrip(t *testing.T) {
	// Run a simulation to a mid-point, checkpoint, and verify that the
	// restored copy continues bit-identically to the original.
	orig := New(testConfig())
	orig.Warmup()
	orig.Advance()

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Step != orig.Step {
		t.Fatalf("restored step %d, want %d", restored.Step, orig.Step)
	}
	if restored.Hist.Latest() != orig.Hist.Latest() {
		t.Fatalf("restored history head %d, want %d", restored.Hist.Latest(), orig.Hist.Latest())
	}

	orig.Advance()
	restored.Advance()
	if restored.Potential == nil {
		t.Fatal("restored run produced no potential")
	}
	for i := range orig.Potential.Data {
		if orig.Potential.Data[i] != restored.Potential.Data[i] {
			t.Fatalf("restored run diverges at %d: %g vs %g",
				i, orig.Potential.Data[i], restored.Potential.Data[i])
		}
	}
	// Particle state must also match exactly.
	for i := range orig.Ensemble.P {
		if orig.Ensemble.P[i] != restored.Ensemble.P[i] {
			t.Fatalf("particle %d diverged", i)
		}
	}
}

func TestCheckpointContinuumRun(t *testing.T) {
	cfg := testConfig()
	cfg.Continuum = true
	orig := New(cfg)
	orig.Run(5)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ocx, ocy := orig.Center()
	rcx, rcy := restored.Center()
	if math.Abs(ocx-rcx) > 0 || math.Abs(ocy-rcy) > 0 {
		t.Fatalf("continuum centre not restored: (%g,%g) vs (%g,%g)", ocx, ocy, rcx, rcy)
	}
	orig.Advance()
	restored.Advance()
	for i := range orig.Potential.Data {
		if orig.Potential.Data[i] != restored.Potential.Data[i] {
			t.Fatal("continuum restored run diverges")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestLoadRejectsBadGridSnapshots re-encodes a valid checkpoint with one
// history grid corrupted: Load must return an error naming that grid's
// step, never a panic or a simulation resumed from a zero-filled grid.
func TestLoadRejectsBadGridSnapshots(t *testing.T) {
	orig := New(testConfig())
	orig.Warmup()
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	cases := []struct {
		name   string
		mutate func(gs *gridSnapshot)
		want   string
	}{
		{"truncated data", func(gs *gridSnapshot) { gs.Data = gs.Data[:10] }, "holds 10 values"},
		{"nx 1", func(gs *gridSnapshot) { gs.NX = 1 }, "is 1x24"},
		{"comp 0", func(gs *gridSnapshot) { gs.Comp = 0 }, "0 components"},
		{"dx 0", func(gs *gridSnapshot) { gs.DX = 0 }, "spacing 0 x"},
		{"dx NaN", func(gs *gridSnapshot) { gs.DX = math.NaN() }, "spacing NaN x"},
		{"dy +Inf", func(gs *gridSnapshot) { gs.DY = math.Inf(1) }, "x +Inf"},
		{"shape unlike the config", func(gs *gridSnapshot) {
			gs.NX, gs.NY = 32, 16
			gs.Data = make([]float64, 32*16*gs.Comp)
		}, "is 32x16, the config's is 24x24"},
		{"step out of order", func(gs *gridSnapshot) { gs.Step = 0 }, "out of order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cp checkpoint
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&cp); err != nil {
				t.Fatal(err)
			}
			if len(cp.Grids) < 3 {
				t.Fatalf("checkpoint holds %d grids", len(cp.Grids))
			}
			gs := &cp.Grids[2]
			tc.mutate(gs)
			var crafted bytes.Buffer
			if err := gob.NewEncoder(&crafted).Encode(&cp); err != nil {
				t.Fatal(err)
			}
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Load panicked: %v", r)
					}
				}()
				_, err = Load(&crafted)
			}()
			if err == nil {
				t.Fatal("crafted checkpoint accepted")
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), fmt.Sprintf("step %d", gs.Step)) {
				t.Fatalf("error %q does not say %q about step %d", err, tc.want, gs.Step)
			}
		})
	}
}

func TestCheckpointPreservesStepAndHistoryDepth(t *testing.T) {
	orig := New(testConfig())
	orig.Warmup()
	orig.Advance()
	orig.Advance()

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Step != orig.Step {
		t.Fatalf("step %d, want %d", restored.Step, orig.Step)
	}
	if restored.Hist.Len() != orig.Hist.Len() {
		t.Fatalf("history depth %d, want %d", restored.Hist.Len(), orig.Hist.Len())
	}
	// Every retained history slot must round-trip, not just the head: the
	// retarded-potential quadrature reads the full depth.
	if restored.Hist.Oldest() != orig.Hist.Oldest() {
		t.Fatalf("oldest step %d, want %d", restored.Hist.Oldest(), orig.Hist.Oldest())
	}
	for k := orig.Hist.Oldest(); k <= orig.Hist.Latest(); k++ {
		og, rg := orig.Hist.At(k), restored.Hist.At(k)
		if og == nil || rg == nil {
			t.Fatalf("history step %d not resident after restore", k)
		}
		for i := range og.Data {
			if og.Data[i] != rg.Data[i] {
				t.Fatalf("history step %d diverges at %d", k, i)
			}
		}
	}

	// Telemetry attached after a restore continues the original step
	// numbering (samples and spans are stamped with Simulation.Step). The
	// fresh kernel bootstraps on the first restored step, so the first
	// predictor sample is the second step's.
	o := obs.New()
	sink := flight.New(0, nil)
	o.Trace = obs.NewTracer(sink)
	restored.Obs = o
	restored.Algo = kernels.NewPredictive(gpusim.New(gpusim.KeplerK40()))
	before := restored.Step
	restored.Advance()
	restored.Advance()
	var advance, predictor []int
	for _, e := range sink.Events() {
		switch e.Name {
		case "advance":
			advance = append(advance, e.Step)
		case "predictor":
			predictor = append(predictor, e.Step)
		}
	}
	if len(advance) != 2 || advance[0] != before || advance[1] != before+1 {
		t.Fatalf("advance span steps %v, want [%d %d]", advance, before, before+1)
	}
	if len(predictor) != 1 || predictor[0] != before+1 {
		t.Fatalf("predictor sample steps %v, want [%d]", predictor, before+1)
	}
}

// smallCheckpoint saves a 4x4, 40-particle, kappa-1 simulation with a full
// history: a few kilobytes, small enough to seed FuzzLoad.
func smallCheckpoint(tb testing.TB) []byte {
	cfg := testConfig()
	cfg.NX, cfg.NY = 4, 4
	cfg.Beam.NumParticles = 40
	cfg.Kappa = 1
	s := New(cfg)
	s.Warmup()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// recode re-encodes the checkpoint raw after mutate edits it.
func recode(tb testing.TB, raw []byte, mutate func(*checkpoint)) []byte {
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&cp); err != nil {
		tb.Fatal(err)
	}
	mutate(&cp)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&cp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// badCheckpointConfigs are configs Validate rejects, written into an
// otherwise valid checkpoint.
var badCheckpointConfigs = []struct {
	name   string
	mutate func(*Config)
	want   string
}{
	{"nx 1", func(c *Config) { c.NX = 1 }, "grid 1x4 too small"},
	// NX·NY wraps to 0: half the bits of int each.
	{"cell count wraps int", func(c *Config) { c.NX, c.NY = 1<<(bits.UintSize/2), 1<<(bits.UintSize/2) }, "has more than 16777216 cells"},
	{"cell count above the bound", func(c *Config) { c.NX, c.NY = MaxGridCells/2+1, 2 }, "has more than 16777216 cells"},
	{"kappa -10", func(c *Config) { c.Kappa = -10 }, "kappa -10 outside"},
	{"kappa above the bound", func(c *Config) { c.Kappa = MaxKappa + 1 }, fmt.Sprintf("kappa %d outside", MaxKappa+1)},
	{"tol NaN", func(c *Config) { c.Tol = math.NaN() }, "tol is NaN"},
	{"unknown scheme", func(c *Config) { c.Scheme = 7 }, "unknown deposition scheme"},
	// The first value past CIC, the last scheme.
	{"scheme 2", func(c *Config) { c.Scheme = 2 }, "unknown deposition scheme Scheme(2)"},
	// Each factor within its bound, the product above MaxMemoryBytes.
	{"history above the memory bound", func(c *Config) { c.NX, c.NY, c.Kappa = 4096, 4096, 60 }, "more than the 8 GiB bound"},
	{"particles above the memory bound", func(c *Config) { c.Beam.NumParticles = 1 << 28 }, "268435456 particles need about 16.1 GB"},
}

// TestLoadRejectsBadConfigs: a checkpoint whose config cannot run is an
// error from Load, before the history is allocated, never a panic.
func TestLoadRejectsBadConfigs(t *testing.T) {
	raw := smallCheckpoint(t)
	for _, tc := range badCheckpointConfigs {
		t.Run(tc.name, func(t *testing.T) {
			crafted := recode(t, raw, func(cp *checkpoint) { tc.mutate(&cp.Cfg) })
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Load panicked: %v", r)
					}
				}()
				_, err = Load(bytes.NewReader(crafted))
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load error = %v, want one saying %q", err, tc.want)
			}
		})
	}
}

// TestLoadRejectsHistoryGap: Save writes consecutive history steps. A gap
// is an error, because the ring would drop grids below it on the next
// Save and the checkpoint would not round-trip.
func TestLoadRejectsHistoryGap(t *testing.T) {
	crafted := recode(t, smallCheckpoint(t), func(cp *checkpoint) {
		cp.Grids = append(cp.Grids[:2:2], cp.Grids[3:]...)
	})
	_, err := Load(bytes.NewReader(crafted))
	if err == nil || !strings.Contains(err.Error(), "out of order: step 3 after step 1") {
		t.Fatalf("Load error = %v, want grids out of order", err)
	}
}
