package gpusim

import (
	"math"
	"testing"
	"testing/quick"
)

// testConfig is a small deterministic device for unit tests.
func testConfig() Config {
	return Config{
		Name:               "test",
		WarpSize:           4,
		NumSMs:             2,
		MaxThreadsPerBlock: 64,
		ResidentWarps:      2,
		L1Bytes:            1 << 10, L1LineBytes: 64, L1Ways: 2,
		L2Bytes: 4 << 10, L2LineBytes: 64, L2Ways: 4,
		PeakGflops:           100,
		DRAMBandwidthGBs:     100,
		MeasuredBandwidthGBs: 50,
		L2BandwidthGBs:       200,
	}
}

func TestUniformKernelFullEfficiency(t *testing.T) {
	d := New(testConfig())
	m := d.Run(Launch{
		Name: "uniform", Blocks: 2, ThreadsPerBlock: 8,
		Kernel: func(l *Lane, b, th int) {
			l.Begin(0)
			l.Flops(10)
			l.Begin(1)
			l.Flops(5)
		},
	})
	if wee := m.WarpExecutionEfficiency(); math.Abs(wee-1) > 1e-12 {
		t.Fatalf("uniform kernel WEE = %g, want 1", wee)
	}
	if m.Flops != 2*8*15 {
		t.Fatalf("flops = %d, want %d", m.Flops, 2*8*15)
	}
	if m.Time <= 0 {
		t.Fatal("no time charged")
	}
}

func TestTripCountDivergenceLowersWEE(t *testing.T) {
	d := New(testConfig())
	m := d.Run(Launch{
		Name: "trips", Blocks: 1, ThreadsPerBlock: 4,
		Kernel: func(l *Lane, b, th int) {
			// Lane i executes i+1 units: classic loop trip divergence.
			for u := 0; u <= th; u++ {
				l.Begin(0)
				l.Flops(10)
			}
		},
	})
	// Thread insts = (1+2+3+4)*10; issue = 4 steps of max 10 insts each.
	wee := m.WarpExecutionEfficiency()
	want := 100.0 / (4 * 10 * 4)
	if math.Abs(wee-want) > 1e-12 {
		t.Fatalf("WEE = %g, want %g", wee, want)
	}
}

func TestBranchKindDivergenceSerialises(t *testing.T) {
	d := New(testConfig())
	m := d.Run(Launch{
		Name: "branch", Blocks: 1, ThreadsPerBlock: 4,
		Kernel: func(l *Lane, b, th int) {
			l.Begin(th % 2) // half the warp takes kind 0, half kind 1
			l.Flops(10)
		},
	})
	// Two serialised groups of 2 active lanes each: 20 thread-insts over
	// 2 issue slots of width 4.
	if wee := m.WarpExecutionEfficiency(); math.Abs(wee-0.5) > 1e-12 {
		t.Fatalf("divergent-branch WEE = %g, want 0.5", wee)
	}
	if m.IssuedFlops != 20 {
		t.Fatalf("issued flops = %d, want 20 (two serialised groups)", m.IssuedFlops)
	}
}

func TestCoalescedLoadsOneLine(t *testing.T) {
	cfg := testConfig()
	d := New(cfg)
	m := d.Run(Launch{
		Name: "coalesced", Blocks: 1, ThreadsPerBlock: 4,
		Kernel: func(l *Lane, b, th int) {
			l.Begin(0)
			l.Load(uintptr(th * 8)) // 4 lanes x 8B = 32B, one 64B line
		},
	})
	if m.L1Accesses != 1 {
		t.Fatalf("L1 accesses = %d, want 1 (perfectly coalesced)", m.L1Accesses)
	}
	// Requested 32B, transferred one 64B line -> GLE 50%.
	if gle := m.GlobalLoadEfficiency(); math.Abs(gle-0.5) > 1e-12 {
		t.Fatalf("GLE = %g, want 0.5", gle)
	}
}

func TestBroadcastLoadExceedsUnity(t *testing.T) {
	cfg := testConfig()
	cfg.WarpSize = 32
	d := New(cfg)
	m := d.Run(Launch{
		Name: "broadcast", Blocks: 1, ThreadsPerBlock: 32,
		Kernel: func(l *Lane, b, th int) {
			l.Begin(0)
			l.Load(0x1000) // all lanes read the same address
		},
	})
	// Requested 32*8 = 256B, transferred one 64B line -> GLE 400%.
	if gle := m.GlobalLoadEfficiency(); math.Abs(gle-4) > 1e-12 {
		t.Fatalf("broadcast GLE = %g, want 4", gle)
	}
}

func TestScatteredLoadsManyLines(t *testing.T) {
	d := New(testConfig())
	m := d.Run(Launch{
		Name: "scattered", Blocks: 1, ThreadsPerBlock: 4,
		Kernel: func(l *Lane, b, th int) {
			l.Begin(0)
			l.Load(uintptr(th * 4096)) // one line per lane
		},
	})
	if m.L1Accesses != 4 {
		t.Fatalf("L1 accesses = %d, want 4 (fully scattered)", m.L1Accesses)
	}
}

func TestCacheHitOnReuse(t *testing.T) {
	d := New(testConfig())
	m := d.Run(Launch{
		Name: "reuse", Blocks: 1, ThreadsPerBlock: 4,
		Kernel: func(l *Lane, b, th int) {
			l.Begin(0)
			l.Load(0x100)
			l.Begin(1)
			l.Load(0x100) // same line again
		},
	})
	if m.L1Hits != 1 || m.L1Accesses != 2 {
		t.Fatalf("L1 hits/accesses = %d/%d, want 1/2", m.L1Hits, m.L1Accesses)
	}
	if m.DRAMReadBytes != 64 {
		t.Fatalf("DRAM reads = %d, want one 64B line", m.DRAMReadBytes)
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	// Touch more lines than L1 holds (1KB / 64B = 16 lines), then re-touch
	// the first: it must have been evicted.
	d := New(testConfig())
	m := d.Run(Launch{
		Name: "evict", Blocks: 1, ThreadsPerBlock: 1,
		Kernel: func(l *Lane, b, th int) {
			for i := 0; i < 32; i++ {
				l.Begin(0)
				l.Load(uintptr(i * 64))
			}
			l.Begin(0)
			l.Load(0) // first line again
		},
	})
	if m.L1Hits != 0 {
		t.Fatalf("L1 hits = %d, want 0 after capacity eviction", m.L1Hits)
	}
	// The line must still hit in L2 (4KB holds 64 lines per SM partition
	// minimum set constraint).
	if m.L2Hits == 0 {
		t.Fatal("re-touched line missed L2 as well")
	}
}

func TestStoresWriteThroughToDRAM(t *testing.T) {
	d := New(testConfig())
	m := d.Run(Launch{
		Name: "stores", Blocks: 1, ThreadsPerBlock: 4,
		Kernel: func(l *Lane, b, th int) {
			l.Begin(0)
			l.Store(uintptr(th * 8))
		},
	})
	if m.DRAMWriteBytes != 64 {
		t.Fatalf("DRAM writes = %d, want one coalesced 64B line", m.DRAMWriteBytes)
	}
	if m.StoreReqBytes != 32 {
		t.Fatalf("store requested = %d, want 32", m.StoreReqBytes)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Metrics {
		d := New(testConfig())
		return d.Run(Launch{
			Name: "det", Blocks: 7, ThreadsPerBlock: 13,
			Kernel: func(l *Lane, b, th int) {
				for u := 0; u < (b*13+th)%5+1; u++ {
					l.Begin(u % 2)
					l.Flops(3)
					l.Load(uintptr((b*1000 + th*64 + u*8)))
				}
			},
		})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestMetricsAdd(t *testing.T) {
	d := New(testConfig())
	k := Launch{Name: "k", Blocks: 1, ThreadsPerBlock: 4,
		Kernel: func(l *Lane, b, th int) { l.Begin(0); l.Flops(4); l.Load(uintptr(th * 8)) }}
	m1 := d.Run(k)
	m2 := d.Run(k)
	var sum Metrics
	sum.Add(m1)
	sum.Add(m2)
	if sum.Flops != m1.Flops+m2.Flops || sum.Kernels != 2 {
		t.Fatal("Add does not accumulate")
	}
	if sum.Time != m1.Time+m2.Time {
		t.Fatal("Add must sum times")
	}
}

func TestLaunchValidation(t *testing.T) {
	d := New(testConfig())
	for i, l := range []Launch{
		{Blocks: 0, ThreadsPerBlock: 4, Kernel: func(*Lane, int, int) {}},
		{Blocks: 1, ThreadsPerBlock: 0, Kernel: func(*Lane, int, int) {}},
		{Blocks: 1, ThreadsPerBlock: 1000, Kernel: func(*Lane, int, int) {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad launch %d did not panic", i)
				}
			}()
			d.Run(l)
		}()
	}
}

func TestTimeScalesWithWork(t *testing.T) {
	d := New(testConfig())
	mk := func(flops int) Metrics {
		return d.Run(Launch{Name: "w", Blocks: 4, ThreadsPerBlock: 8,
			Kernel: func(l *Lane, b, th int) { l.Begin(0); l.Flops(flops) }})
	}
	small := mk(100)
	large := mk(1000)
	if large.Time < 9*small.Time || large.Time > 11*small.Time {
		t.Fatalf("time not ~linear in flops: %g vs %g", small.Time, large.Time)
	}
}

func TestGflopsBoundedByPeak(t *testing.T) {
	cfg := testConfig()
	d := New(cfg)
	m := d.Run(Launch{Name: "peak", Blocks: 8, ThreadsPerBlock: 16,
		Kernel: func(l *Lane, b, th int) { l.Begin(0); l.Flops(1000) }})
	if g := m.Gflops(); g > cfg.PeakGflops*1.0001 {
		t.Fatalf("achieved %g Gflops exceeds peak %g", g, cfg.PeakGflops)
	}
}

func TestCachePropertyHitsNeverExceedAccesses(t *testing.T) {
	check := func(seed uint64) bool {
		d := New(testConfig())
		m := d.Run(Launch{Name: "prop", Blocks: 3, ThreadsPerBlock: 8,
			Kernel: func(l *Lane, b, th int) {
				s := seed
				for u := 0; u < 5; u++ {
					l.Begin(0)
					s = s*6364136223846793005 + 1442695040888963407
					l.Load(uintptr(s % 8192))
					l.Flops(int(s%7) + 1)
				}
			}})
		return m.L1Hits <= m.L1Accesses && m.L2Hits <= m.L2Accesses &&
			m.ThreadInsts <= m.IssuedWarpInsts*uint64(d.cfg.WarpSize) &&
			m.Flops <= m.IssuedFlops*uint64(d.cfg.WarpSize)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLaneAccounting(t *testing.T) {
	var l Lane
	l.reset()
	l.Begin(1)
	l.Flops(3)
	l.Load(0x10)
	l.Begin(2)
	l.Flops(4)
	if l.Units() != 2 {
		t.Fatalf("units = %d", l.Units())
	}
	if f := l.LaneFlops(); f != 7 {
		t.Fatalf("lane flops = %d", f)
	}
}

func TestImplicitUnitOnFirstOp(t *testing.T) {
	d := New(testConfig())
	m := d.Run(Launch{Name: "implicit", Blocks: 1, ThreadsPerBlock: 2,
		Kernel: func(l *Lane, b, th int) { l.Flops(2) }})
	if m.Flops != 4 {
		t.Fatalf("flops = %d, want 4", m.Flops)
	}
}

func TestPartialWarpCostsIssueWidth(t *testing.T) {
	// A block smaller than the warp still issues full-width instructions:
	// 2 active lanes of 4 -> WEE 50%.
	d := New(testConfig())
	m := d.Run(Launch{
		Name: "partial", Blocks: 1, ThreadsPerBlock: 2,
		Kernel: func(l *Lane, b, th int) { l.Begin(0); l.Flops(10) },
	})
	if wee := m.WarpExecutionEfficiency(); math.Abs(wee-0.5) > 1e-12 {
		t.Fatalf("partial-warp WEE = %g, want 0.5", wee)
	}
}

func TestResidentWarpsShareCachePressure(t *testing.T) {
	// With interleaved resident warps, two warps that stream disjoint
	// working sets larger than L1 evict each other; with a single
	// resident warp each enjoys its own locality. The interleaved run
	// must therefore see fewer L1 hits.
	mk := func(resident int) Metrics {
		cfg := testConfig()
		cfg.ResidentWarps = resident
		cfg.WarpSize = 4
		d := New(cfg)
		return d.Run(Launch{
			Name: "pressure", Blocks: 1, ThreadsPerBlock: 8, // 2 warps
			Kernel: func(l *Lane, b, th int) {
				warp := th / 4
				// Each warp streams its own 1KB region twice; L1 is 1KB
				// total, so two interleaved warps thrash it.
				for pass := 0; pass < 2; pass++ {
					for i := 0; i < 16; i++ {
						l.Begin(0)
						l.Load(uintptr(warp*4096 + i*64))
					}
				}
			},
		})
	}
	sequential := mk(1)
	interleaved := mk(2)
	if interleaved.L1Hits >= sequential.L1Hits {
		t.Fatalf("interleaving did not create cache pressure: %d vs %d hits",
			interleaved.L1Hits, sequential.L1Hits)
	}
}

func TestL2PartitionPerSM(t *testing.T) {
	// Two SMs must not share L2 state (deterministic parallel replay):
	// the same line streamed by blocks on different SMs misses in each
	// SM's partition independently.
	cfg := testConfig()
	d := New(cfg)
	m := d.Run(Launch{
		Name: "l2split", Blocks: 2, ThreadsPerBlock: 1, // one block per SM
		Kernel: func(l *Lane, b, th int) {
			l.Begin(0)
			l.Load(0x2000)
		},
	})
	if m.L2Hits != 0 {
		t.Fatalf("cross-SM L2 sharing detected: %d hits", m.L2Hits)
	}
	if m.DRAMReadBytes != 2*uint64(cfg.L2LineBytes) {
		t.Fatalf("DRAM reads %d, want two independent line fills", m.DRAMReadBytes)
	}
}
