package gpusim

import (
	"fmt"
	"testing"
)

// abKernels is the synthetic kernel matrix the engine A/B runs: every
// divergence and memory shape the replay model distinguishes. Each kernel
// is deterministic in (block, thread) so two devices replay identical
// traces.
var abKernels = []struct {
	name string
	k    Kernel
}{
	{"uniform-stride1", func(l *Lane, b, th int) {
		for u := 0; u < 6; u++ {
			l.Begin(0)
			l.Flops(4)
			l.Load(uintptr((b*4096 + th*8 + u*64)))
		}
	}},
	{"branch-divergent", func(l *Lane, b, th int) {
		l.Begin(th % 3)
		l.Flops(7)
		l.Load(uintptr(th * 128))
		l.Begin(5)
		l.Store(uintptr(th * 8))
	}},
	{"trip-divergent", func(l *Lane, b, th int) {
		for u := 0; u <= (b+th)%5; u++ {
			l.Begin(0)
			l.Flops(3)
			l.Load(uintptr(b*2048 + th*64 + u*8))
		}
	}},
	{"broadcast", func(l *Lane, b, th int) {
		l.Begin(0)
		l.Load(0x4000)
		l.Load(uintptr(0x4000 + b*8))
		l.Flops(2)
	}},
	{"scattered", func(l *Lane, b, th int) {
		l.Begin(0)
		// Descending, unsorted lane order: forces the coalescer's sort.
		l.Load(uintptr((64 - th) * 4096))
		l.Load(uintptr(((th * 37) % 11) * 2048))
	}},
	{"store-heavy", func(l *Lane, b, th int) {
		l.Begin(1)
		l.Flops(1)
		for s := 0; s < 3; s++ {
			l.Store(uintptr(b*1024 + th*24 + s*8))
		}
	}},
	{"mixed-phase", func(l *Lane, b, th int) {
		l.Begin(0)
		l.Flops(10)
		l.Load(uintptr(th * 8))
		if th%2 == 0 {
			l.Begin(1)
			l.Load(uintptr(th * 512))
			l.Flops(2)
		}
		l.Begin(2)
		l.Store(uintptr(th * 8))
	}},
	{"implicit-unit", func(l *Lane, b, th int) {
		l.Flops(3)
		l.Load(uintptr(th * 16))
	}},
}

// abConfig builds a deterministic device config for the A/B matrix.
func abConfig(warp, sms, resident int) Config {
	return Config{
		Name:               "ab",
		WarpSize:           warp,
		NumSMs:             sms,
		MaxThreadsPerBlock: 1024,
		ResidentWarps:      resident,
		L1Bytes:            1 << 10, L1LineBytes: 64, L1Ways: 2,
		L2Bytes: 4 << 10, L2LineBytes: 64, L2Ways: 4,
		PeakGflops:           100,
		DRAMBandwidthGBs:     100,
		MeasuredBandwidthGBs: 50,
		L2BandwidthGBs:       200,
	}
}

// TestEngineABMatrix is the streaming engine's contract: for every
// synthetic kernel shape, warp size, resident-window depth and SM count —
// including partial warps and trip-count divergence — the streaming and
// oracle engines produce ==-equal Metrics, launch after launch on warm
// devices (so cache carry-over between launches is compared too), and
// leave the caches in the same state: tags, recency order and last-line
// state.
func TestEngineABMatrix(t *testing.T) {
	warps := []int{1, 2, 4, 8, 32}
	residents := []int{1, 2, 3, 8}
	for _, ws := range warps {
		for _, res := range residents {
			for _, sms := range []int{1, 2} {
				cfg := abConfig(ws, sms, res)
				// Thread counts hitting full warps, partial tail warps,
				// and blocks smaller than one warp.
				threads := []int{1, ws, ws + 1, 3*ws - 1, 4 * ws}
				for _, tpb := range threads {
					name := fmt.Sprintf("ws%d_res%d_sm%d_tpb%d", ws, res, sms, tpb)
					t.Run(name, func(t *testing.T) {
						stream := New(cfg)
						oracle := newOracle(cfg)
						for _, ab := range abKernels {
							l := Launch{Name: ab.name, Blocks: 3, ThreadsPerBlock: tpb, Kernel: ab.k}
							ms := stream.Run(l)
							mo := runOracle(oracle, l)
							if ms != mo {
								t.Fatalf("%s: engines diverge\nstreaming: %+v\noracle:    %+v", ab.name, ms, mo)
							}
							sameAsOracle(t, ab.name, stream, oracle)
						}
					})
				}
			}
		}
	}
}

// TestCacheAccessMatchesScan feeds an identical pseudo-random line stream
// through the streaming lookup (MRU + last-line fast paths) and the
// oracle's stamp scan on twin caches, and requires identical hit/miss
// decisions at every step and identical state — tags, the recency order
// the stamps give, last-line state — every 100 steps, the last included:
// the fast paths must be pure accelerations.
func TestCacheAccessMatchesScan(t *testing.T) {
	configs := []struct {
		name                   string
		total, lineBytes, ways int
		base                   uintptr // offset added to every line (heap-scale for the big case)
	}{
		// 8 sets: power-of-two, exercises the mask path.
		{"pow2-sets", 1 << 10, 64, 2, 0},
		// 50 sets x 16 ways: the K40's per-SM L2 shape, exercises the
		// reciprocal-multiply modulo, with heap-scale line addresses so the
		// 64-bit magic sees realistically large inputs.
		{"nonpow2-sets-heap-lines", 50 * 128 * 16, 128, 16, uintptr(0xc000d2f000) / 128},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			fast := newCache(cfg.total, cfg.lineBytes, cfg.ways)
			scan := newScanCache(cfg.total, cfg.lineBytes, cfg.ways)
			if fast.sets != scan.sets || fast.sets&(fast.sets-1) == 0 != (cfg.base == 0) {
				t.Fatalf("config %q: sets=%d does not exercise the intended set-index path", cfg.name, fast.sets)
			}
			s := uint64(12345)
			for i := 0; i < 20000; i++ {
				s = s*6364136223846793005 + 1442695040888963407
				var line uintptr
				switch s % 4 {
				case 0: // repeat the previous line (last-line path)
					line = fast.lastTag
					if line > 0 {
						line--
					} else {
						line = cfg.base
					}
				case 1: // small working set (MRU-way path)
					line = cfg.base + uintptr(s>>32)%8
				default: // wide stream (scan + evictions)
					line = cfg.base + uintptr(s>>32)%uintptr(fast.sets*fast.ways*4)
				}
				hf := fast.access(line)
				hs := scan.access(line)
				if hf != hs {
					t.Fatalf("step %d line %d: fast=%v scan=%v", i, line, hf, hs)
				}
				if ws, wf := int(line%uintptr(fast.sets)), fast.setOf(line); ws != wf {
					t.Fatalf("step %d line %d: setOf=%d want %d", i, line, wf, ws)
				}
				if i%100 == 99 {
					if sf, ss := cacheState(fast, false), scan.state(); sf != ss {
						t.Fatalf("step %d: state divergence\nfast: %s\nscan: %s", i, sf, ss)
					}
				}
			}
			if scan.hits == 0 || scan.misses == 0 {
				t.Fatalf("stream produced %d hits and %d misses, want both", scan.hits, scan.misses)
			}
			if fast.mruHits == 0 {
				t.Fatal("fast-path stream produced no MRU hits — fast path never taken")
			}
		})
	}
}

// TestRunZeroSteadyStateAllocs pins the streaming engine's central
// contract: after warmup, Device.Run performs zero heap allocations per
// launch (mirroring the jobs-server event-path pin). The launches mix
// divergence, partial warps, scattered memory and 3x3 footprints (grouped,
// declined by a misaligned lane, and out of line order) so every replay
// path is exercised, plus the replay floor's four workload shapes.
func TestRunZeroSteadyStateAllocs(t *testing.T) {
	d := New(KeplerK40())
	launches := []Launch{{
		Name: "alloc-pin", Blocks: 6, ThreadsPerBlock: 100,
		Kernel: func(lane *Lane, b, th int) {
			for u := 0; u <= th%7; u++ {
				lane.Begin(u % 2)
				lane.Flops(4)
				lane.Load(uintptr((b*4096 + th*64 + u*8)))
				lane.Load(uintptr((97 - th) * 2048))
			}
			lane.Begin(9)
			lane.Store(uintptr(th * 8))
		},
	}, {
		Name: "alloc-pin-footprints", Blocks: 6, ThreadsPerBlock: 100,
		Kernel: func(lane *Lane, b, th int) {
			for u := 0; u <= th%3; u++ {
				lane.Begin(u % 2)
				lane.Flops(4)
				if th%33 == 1 {
					lane.Load(uintptr(b * 64))
				}
				lane.Load3x3(uintptr(b*8192+th*8+u*64), 8, 1024)
				lane.Load3x3(uintptr((97-th)*2048), 8, 1024)
			}
		},
	}}
	launches = append(launches, floorLaunches()...)
	for i := 0; i < 3; i++ { // size the lane arenas and goroutine pool
		for _, l := range launches {
			d.Run(l)
		}
	}
	for _, l := range launches {
		if avg := testing.AllocsPerRun(20, func() { d.Run(l) }); avg != 0 {
			t.Fatalf("%s: Device.Run allocates %.1f objects/launch in steady state, want 0", l.Name, avg)
		}
	}
}

// TestRunDeterministicAcrossInterleavings pins the parallel replay's
// determinism: because each SM owns its private L1/L2 partition, goroutine
// scheduling cannot leak state between SMs, so repeating the same launch
// sequence — later launches running on a warm device — must reproduce the
// identical per-launch Metrics under every NumSMs goroutine interleaving.
func TestRunDeterministicAcrossInterleavings(t *testing.T) {
	for _, sms := range []int{1, 2, 4} {
		cfg := abConfig(4, sms, 2)
		run := func() [5]Metrics {
			d := New(cfg)
			var seq [5]Metrics
			for i := range seq {
				seq[i] = d.Run(Launch{
					Name: "det", Blocks: 11, ThreadsPerBlock: 13,
					Kernel: func(l *Lane, b, th int) {
						for u := 0; u < (b*13+th)%4+1; u++ {
							l.Begin(u % 2)
							l.Flops(3)
							l.Load(uintptr(b*1024 + th*64 + u*8))
						}
					},
				})
			}
			return seq
		}
		ref := run()
		for rep := 0; rep < 10; rep++ {
			seq := run()
			for i := range seq {
				if seq[i] != ref[i] {
					t.Fatalf("NumSMs=%d rep %d launch %d diverged across interleavings:\n%+v\n%+v",
						sms, rep, i, seq[i], ref[i])
				}
			}
		}
	}
}

// TestTraceCountersInvariantToNumSMs checks that the per-SM partitioning
// only affects cache and DRAM behaviour: the trace-derived counters
// (thread/warp instructions, flops, requested bytes) are identical
// whatever the SM count, because they depend on warp grouping within a
// block, never on which SM replayed it.
func TestTraceCountersInvariantToNumSMs(t *testing.T) {
	launch := Launch{
		Name: "sm-invariant", Blocks: 9, ThreadsPerBlock: 13,
		Kernel: func(l *Lane, b, th int) {
			for u := 0; u <= (b+th)%3; u++ {
				l.Begin(u)
				l.Flops(5)
				l.Load(uintptr(b*512 + th*8))
				l.Store(uintptr(b*512 + th*8))
			}
		},
	}
	var ref Metrics
	for i, sms := range []int{1, 2, 5} {
		m := New(abConfig(4, sms, 2)).Run(launch)
		if i == 0 {
			ref = m
			continue
		}
		if m.ThreadInsts != ref.ThreadInsts || m.IssuedWarpInsts != ref.IssuedWarpInsts ||
			m.Flops != ref.Flops || m.IssuedFlops != ref.IssuedFlops ||
			m.LoadReqBytes != ref.LoadReqBytes || m.StoreReqBytes != ref.StoreReqBytes {
			t.Fatalf("NumSMs=%d changed trace-derived counters:\n%+v\nref (1 SM): %+v", sms, m, ref)
		}
	}
}

// TestLaneFlopsReadOnly pins the satellite fix: LaneFlops must not close
// the open unit — a read-only helper called mid-trace must leave the
// unit's load/store bounds for closeUnit to stamp at trace end.
func TestLaneFlopsReadOnly(t *testing.T) {
	var l Lane
	l.reset()
	l.Begin(1)
	l.Flops(3)
	l.Load(0x10)
	if f := l.LaneFlops(); f != 3 {
		t.Fatalf("mid-trace LaneFlops = %d, want 3 (open unit counted)", f)
	}
	if end := l.units[0].loadEnd; end != 0 {
		t.Fatalf("LaneFlops closed the open unit (loadEnd = %d, want 0 until closeUnit)", end)
	}
	l.Load(0x20) // the trace continues after the helper call
	l.closeUnit()
	if end := l.units[0].loadEnd; end != 2 {
		t.Fatalf("unit loadEnd = %d after closeUnit, want 2", end)
	}
	if f := l.LaneFlops(); f != 3 {
		t.Fatalf("closed-trace LaneFlops = %d, want 3", f)
	}
}

// TestReplayStatsAccumulate sanity-checks the gpu_replay_* sources: warp
// instructions accumulate on both engines, and the streaming fast paths
// fire on the patterns built for them.
func TestReplayStatsAccumulate(t *testing.T) {
	d := New(abConfig(4, 1, 1))
	d.Run(Launch{Name: "s", Blocks: 2, ThreadsPerBlock: 8,
		Kernel: func(l *Lane, b, th int) {
			l.Begin(0)
			l.Flops(1)
			l.Load(0x4000)             // broadcast: one line for the warp
			l.Load(uintptr(th * 8))    // stride-1
			l.Load(uintptr(-th * 512)) // descending: sort fallback
		}})
	s := d.ReplayStats()
	if s.WarpInsts == 0 {
		t.Fatal("no warp instructions counted")
	}
	if s.LineShortCircuits == 0 {
		t.Fatal("broadcast did not take the single-line short-circuit")
	}
	if s.SortFallbacks == 0 {
		t.Fatal("descending addresses did not trigger the sort fallback")
	}
	if s.MRUHits == 0 {
		t.Fatal("repeated line did not take the MRU fast path")
	}
}
