package gpusim

import (
	"math"
	"runtime/debug"
	"testing"
	"time"
)

// floorLaunches returns the replay floor's four representative kernel
// shapes on a 48x48 grid: one lane per grid point in 256-thread blocks
// (the paper's launch shape for NxN field grids). The bodies mirror the
// access patterns the beam-dynamics kernels produce: coalesced stride-1
// sweeps over grid moments, trip-count divergence from adaptive
// quadrature's per-point refinement depth, scattered gathers into the
// retarded history, and broadcast-heavy reduction phases.
func floorLaunches() []Launch {
	const grid, tpb = 48, 256
	kernels := []struct {
		name string
		k    Kernel
	}{
		{"stride1-moments", func(l *Lane, b, th int) {
			base := uintptr(b*grid*64 + th*8)
			for u := 0; u < 4; u++ {
				l.Begin(0)
				l.Flops(12)
				l.Load(base + uintptr(u*grid*8))
				l.Load(base + uintptr((u+1)*grid*8))
				l.Store(base + uintptr(u*grid*8))
			}
		}},
		{"divergent-cone", func(l *Lane, b, th int) {
			depth := (b*31 + th*7) % 6
			for u := 0; u <= depth; u++ {
				l.Begin(u % 2)
				l.Flops(20)
				l.Load(uintptr(b*4096 + th*8 + u*1024))
			}
			l.Begin(8)
			l.Store(uintptr(b*grid*8 + th*8))
		}},
		{"scattered-gather", func(l *Lane, b, th int) {
			l.Begin(0)
			l.Flops(6)
			for u := 0; u < 3; u++ {
				idx := (th*2654435761 + u*40503 + b*97) % (grid * grid)
				l.Load(uintptr(idx * 8))
			}
			l.Store(uintptr(b*grid*8 + th*8))
		}},
		{"broadcast-reduce", func(l *Lane, b, th int) {
			l.Begin(0)
			l.Flops(4)
			l.Load(uintptr(b * 8)) // per-block constant: whole warp, one line
			l.Load(uintptr(th * 8))
			l.Begin(1)
			l.Flops(8)
			l.Store(uintptr(b*grid*8 + th*8))
		}},
	}
	launches := make([]Launch, len(kernels))
	for i, k := range kernels {
		launches[i] = Launch{
			Name:            k.name,
			Blocks:          (grid*grid + tpb - 1) / tpb,
			ThreadsPerBlock: tpb,
			Kernel:          k.k,
		}
	}
	return launches
}

// replayWalls times one launch on both engines, each replaying on its own
// warm device, and returns each engine's fastest wall pass. The engines'
// Metrics must be ==-equal on the warm-up launch. Reps interleave the two
// engines so machine noise hits both alike, with GC off.
func replayWalls(b *testing.B, l Launch, reps int) (oracleSec, streamSec float64) {
	oracle := newOracle(KeplerK40())
	stream := New(KeplerK40())
	if mo, ms := runOracle(oracle, l), stream.Run(l); mo != ms {
		b.Fatalf("%s: engines disagree on warm-up launch\noracle:    %+v\nstreaming: %+v", l.Name, mo, ms)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	oracleSec, streamSec = math.Inf(1), math.Inf(1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		runOracle(oracle, l)
		oracleSec = math.Min(oracleSec, time.Since(t0).Seconds())
		t0 = time.Now()
		stream.Run(l)
		streamSec = math.Min(streamSec, time.Since(t0).Seconds())
	}
	return oracleSec, streamSec
}

// BenchmarkReplayFloor holds the streaming replay to its floor against the
// oracle engine it replaced: over floorLaunches, the aggregate
// oracle/streaming wall ratio must reach 1.3, and no single workload may
// replay slower than on the oracle. Each iteration is one whole floor
// measurement (min of 3 interleaved reps per workload); `make
// bench-floors` runs it with -benchtime 1x.
func BenchmarkReplayFloor(b *testing.B) {
	const (
		reps       = 3
		minSpeedup = 1.3
	)
	for i := 0; i < b.N; i++ {
		var oracleTotal, streamTotal float64
		for _, l := range floorLaunches() {
			oSec, sSec := replayWalls(b, l, reps)
			oracleTotal += oSec
			streamTotal += sSec
			speedup := oSec / sSec
			b.ReportMetric(speedup, l.Name+"_x")
			if speedup < 1 {
				b.Errorf("%s: streaming replay %.2fx vs oracle, want >= 1", l.Name, speedup)
			}
		}
		speedup := oracleTotal / streamTotal
		b.ReportMetric(speedup, "x_vs_oracle")
		if speedup < minSpeedup {
			b.Errorf("streaming replay %.2fx vs oracle over all workloads, want >= %.1f", speedup, minSpeedup)
		}
	}
}
