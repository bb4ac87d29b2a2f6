package gpusim

import "testing"

// BenchmarkReplayUniform measures trace+replay throughput for a uniform
// compute kernel (the simulator's floor cost per lane instruction).
func BenchmarkReplayUniform(b *testing.B) {
	d := New(KeplerK40())
	l := Launch{
		Name: "bench-uniform", Blocks: 8, ThreadsPerBlock: 128,
		Kernel: func(lane *Lane, blk, th int) {
			for u := 0; u < 16; u++ {
				lane.Begin(0)
				lane.Flops(8)
				lane.Load(uintptr((blk*128 + th) * 8))
			}
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(l)
	}
}

// BenchmarkReplayDivergent measures the cost with heavy trip-count
// divergence (the two-phase refine pattern).
func BenchmarkReplayDivergent(b *testing.B) {
	d := New(KeplerK40())
	l := Launch{
		Name: "bench-divergent", Blocks: 8, ThreadsPerBlock: 128,
		Kernel: func(lane *Lane, blk, th int) {
			for u := 0; u <= th%29; u++ {
				lane.Begin(0)
				lane.Flops(8)
				lane.Load(uintptr((blk*4096 + th*32 + u) * 8))
			}
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(l)
	}
}

// BenchmarkReplayFootprint measures trace+replay of the loads that
// dominate the beam-dynamics kernels: 3x3 stencil footprints recorded
// with Load3x3, three temporal planes per sample as in retard's stencil,
// by one row-contiguous warp per block (lane th reads column th of the
// sample row). "aligned" starts each warp's row at an L1 line boundary;
// "straddle" starts it 104 bytes into a line, so every instruction's
// lines straddle one more line boundary.
func BenchmarkReplayFootprint(b *testing.B) {
	const nx, samples = 128, 16
	for _, v := range []struct {
		name string
		col0 int // first lane's column
	}{{"aligned", 16}, {"straddle", 16 + 13}} {
		b.Run(v.name, func(b *testing.B) {
			d := New(KeplerK40())
			l := Launch{
				Name: "bench-footprint", Blocks: 30, ThreadsPerBlock: 32,
				Kernel: func(lane *Lane, blk, th int) {
					lane.Begin(0)
					for s := 0; s < samples; s++ {
						row := 1 + (blk*7+s*5)%(nx-4)
						for p := 0; p < 3; p++ {
							base := uintptr(p*nx*nx*8 + (row*nx+v.col0+th)*8)
							lane.Load3x3(base, 8, nx*8)
						}
						lane.Flops(14 + 3*30)
					}
				},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Run(l)
			}
		})
	}
}

// BenchmarkCacheAccess measures the raw cache-model lookup rate.
func BenchmarkCacheAccess(b *testing.B) {
	c := newCache(48<<10, 128, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.access(uintptr(i % 1024))
	}
}
