package gpusim

import (
	"fmt"
	"testing"
)

// recordFootprint records one 3x3 footprint on a lane. Every footprint
// kernel below is built twice: once with Lane.Load3x3 and once with
// viaLoads, the nine equivalent single loads, so the two traces hold the
// same addresses in the same order and differ only in the footprint index.
type recordFootprint func(l *Lane, a0, col, row uintptr)

func viaLoads(l *Lane, a0, col, row uintptr) {
	for r := uintptr(0); r < 3; r++ {
		for c := uintptr(0); c < 3; c++ {
			l.Load(a0 + r*row + c*col)
		}
	}
}

// fpShapes is the footprint matrix: each shape stresses one part of the
// group rule or of the line derivation.
var fpShapes = []struct {
	name string
	k    func(fp recordFootprint) Kernel
}{
	{"aligned", func(fp recordFootprint) Kernel {
		return func(l *Lane, b, th int) {
			for u := 0; u < 2; u++ {
				l.Begin(0)
				l.Flops(5)
				for s := 0; s < 3; s++ {
					fp(l, uintptr(b*8192+th*8+s*1024+u*64), 8, 512)
				}
			}
		}
	}},
	{"extra-single-load", func(fp recordFootprint) Kernel {
		// Lane 1 loads once before its footprints, so its footprints start
		// one index later than everyone else's: the group rule fails and
		// every load takes the per-instruction path.
		return func(l *Lane, b, th int) {
			l.Begin(0)
			if th == 1 {
				l.Load(uintptr(b * 64))
			}
			fp(l, uintptr(th*8), 8, 256)
			fp(l, uintptr(4096+th*8), 8, 256)
			l.Load(uintptr(th * 16))
			fp(l, uintptr(8192+th*8), 8, 256)
		}
	}},
	{"mixed-strides", func(fp recordFootprint) Kernel {
		// (col, row) differ between lanes of one group, zero strides
		// included; a uniform unit follows on the same lanes.
		return func(l *Lane, b, th int) {
			l.Begin(0)
			switch th % 3 {
			case 0:
				fp(l, 0, 0, 0)
			case 1:
				fp(l, uintptr(b*512+th*8), 8, 512)
			default:
				fp(l, uintptr(b*512+th*8), 16, 1024)
			}
			l.Begin(1)
			fp(l, 0, 0, 0)
			fp(l, uintptr(th*24), 8, 0)
		}
	}},
	{"descending", func(fp recordFootprint) Kernel {
		return func(l *Lane, b, th int) {
			l.Begin(0)
			for s := 0; s < 2; s++ {
				fp(l, uintptr((64-th)*4096+s*8), 8, 1024)
			}
		}
	}},
	{"scattered", func(fp recordFootprint) Kernel {
		return func(l *Lane, b, th int) {
			l.Begin(0)
			fp(l, uintptr(((th*37+b*11)%13)*2048+(th%5)*40), 8, 768)
			fp(l, uintptr(((th*7)%5)*136), 8, 136)
		}
	}},
	{"straddle", func(fp recordFootprint) Kernel {
		// Bases a few doubles below a 128-byte boundary: each row of the
		// footprint crosses into the next line for some lanes.
		return func(l *Lane, b, th int) {
			l.Begin(0)
			fp(l, uintptr(b*1024+112+(th%4)*8), 8, 128)
			fp(l, uintptr(b*1024+120+(th%3)*8), 8, 384)
		}
	}},
	{"divergent", func(fp recordFootprint) Kernel {
		// Divergent kinds and trip counts: groups issue with partial
		// membership, and some lanes run out of footprints early.
		return func(l *Lane, b, th int) {
			for u := 0; u <= (b+th)%3; u++ {
				l.Begin(th % 2)
				l.Flops(3)
				for s := 0; s <= th%3; s++ {
					fp(l, uintptr(b*2048+th*64+s*8+u*512), 8, 2048)
				}
			}
			l.Begin(7)
			l.Store(uintptr(th * 8))
		}
	}},
	{"repeat-lines", func(fp recordFootprint) Kernel {
		// Row-contiguous bases a few doubles into a line: a footprint
		// row's three column instructions share lines, and a later column
		// straddles into the next line, so the repeat shortcut fires on
		// some instructions of a row and the walk serves the rest.
		return func(l *Lane, b, th int) {
			l.Begin(0)
			for s := 0; s < 2; s++ {
				fp(l, uintptr(b*4096+32+th*8+s*256), 8, 640)
			}
		}
	}},
	{"set-span", func(fp recordFootprint) Kernel {
		// Lanes 512 bytes apart: with 64-byte lines every lane's line
		// falls in the same L1 set, and the warp's lines span more lines
		// than L1 has sets. Each column repeats the previous column's
		// lines, yet they evict each other, so the shortcut must decline.
		return func(l *Lane, b, th int) {
			l.Begin(0)
			fp(l, uintptr(b*65536+th*512), 8, 128)
			fp(l, uintptr(b*65536+th*512+16), 8, 128)
		}
	}},
	{"wrap", func(fp recordFootprint) Kernel {
		// Addresses near the top of the address space wrap for some
		// offsets: the group is declined and each load replays alone.
		return func(l *Lane, b, th int) {
			l.Begin(0)
			fp(l, uintptr(-(th+1)*8), 8, 64)
			fp(l, uintptr(th*8), ^uintptr(7), 64)
		}
	}},
}

// fpConfig is abConfig with a selectable L1 line size.
func fpConfig(warp, sms, resident, l1Line int) Config {
	cfg := abConfig(warp, sms, resident)
	cfg.L1LineBytes = l1Line
	return cfg
}

// cacheState renders a streaming cache's state: tags, recency order and
// last-line state, plus, with mru set, its MRU-hit count (which the
// oracle's scan cache does not keep).
func cacheState(c *cache, mru bool) string {
	s := fmt.Sprint(c.tags, c.order, c.lastTag)
	if mru {
		s += fmt.Sprint(" ", c.mruHits)
	}
	return s
}

// sameCaches fails unless every SM's L1 and L2 of the streaming devices a
// and b are in the same state, MRU-hit counts included.
func sameCaches(t *testing.T, tag string, a, b *Device) {
	t.Helper()
	for i := range a.sms {
		for _, c := range []struct {
			name   string
			ca, cb *cache
		}{{"L1", a.sms[i].l1, b.sms[i].l1}, {"L2", a.sms[i].l2, b.sms[i].l2}} {
			if sa, sb := cacheState(c.ca, true), cacheState(c.cb, true); sa != sb {
				t.Fatalf("%s: SM %d %s state differs\n%s\n%s", tag, i, c.name, sa, sb)
			}
		}
	}
}

// repeats sums the footprint instructions the repeat shortcut resolved.
func repeats(d *Device) uint64 {
	var n uint64
	for _, sm := range d.sms {
		n += sm.repeats
	}
	return n
}

// TestFootprintABMatrix is Load3x3's contract with the simulated GPU: for
// every footprint shape, warp size, resident window, SM count, partial
// warp and L1 line size (96 bytes is not a power of two), a trace recorded
// with Load3x3 and replayed by the streaming engine gives ==-equal Metrics
// to the same trace recorded as nine single loads, under both the
// streaming engine and the oracle, launch after launch on warm devices.
// After every launch the caches must be in the same state too: the
// Load3x3 device's L1 and L2 (tags, recency order, last-line state, MRU
// hits) equal the single-load device's, and their tags, recency order and
// last-line state equal the oracle's; so must the replay statistics the
// footprint path does not change by design (everything but
// SortFallbacks).
func TestFootprintABMatrix(t *testing.T) {
	for _, ws := range []int{4, 32} {
		for _, res := range []int{1, 8} {
			for _, sms := range []int{1, 2} {
				for _, line := range []int{64, 96} {
					cfg := fpConfig(ws, sms, res, line)
					for _, tpb := range []int{1, ws, ws + 1, 3*ws - 1} {
						name := fmt.Sprintf("ws%d_res%d_sm%d_line%d_tpb%d", ws, res, sms, line, tpb)
						t.Run(name, func(t *testing.T) {
							fpStream := New(cfg)
							loadStream := New(cfg)
							fpOracle := newOracle(cfg)
							for _, sh := range fpShapes {
								l := Launch{Name: sh.name, Blocks: 3, ThreadsPerBlock: tpb}
								l.Kernel = sh.k((*Lane).Load3x3)
								mf := fpStream.Run(l)
								mo := runOracle(fpOracle, l)
								l.Kernel = sh.k(viaLoads)
								ml := loadStream.Run(l)
								if mf != ml {
									t.Fatalf("%s: footprint trace diverges from single loads\nLoad3x3: %+v\nLoad:    %+v", sh.name, mf, ml)
								}
								if mf != mo {
									t.Fatalf("%s: streaming diverges from oracle\nstreaming: %+v\noracle:    %+v", sh.name, mf, mo)
								}
								sameCaches(t, sh.name+" Load3x3 vs Load", fpStream, loadStream)
								sameAsOracle(t, sh.name+" Load3x3 vs oracle", fpStream, fpOracle)
								sf, sl := fpStream.ReplayStats(), loadStream.ReplayStats()
								sf.SortFallbacks, sl.SortFallbacks = 0, 0
								if sf != sl {
									t.Fatalf("%s: replay statistics diverge\nLoad3x3: %+v\nLoad:    %+v", sh.name, sf, sl)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestFootprintGroupSortsOnce shows the group path fires: aligned
// footprints whose bases descend across the warp need one sort per group,
// where the per-instruction path sorts each of the nine loads.
func TestFootprintGroupSortsOnce(t *testing.T) {
	const blocks, footprints = 2, 3
	cfg := abConfig(4, 1, 1)
	kernel := func(fp recordFootprint) Kernel {
		return func(l *Lane, b, th int) {
			l.Begin(0)
			for s := 0; s < footprints; s++ {
				fp(l, uintptr((64-th)*4096+s*64), 8, 512)
			}
		}
	}
	run := func(fp recordFootprint) ReplayStats {
		d := New(cfg)
		d.Run(Launch{Name: "descending", Blocks: blocks, ThreadsPerBlock: cfg.WarpSize, Kernel: kernel(fp)})
		return d.ReplayStats()
	}
	groups := uint64(blocks * footprints)
	if got := run((*Lane).Load3x3).SortFallbacks; got != groups {
		t.Fatalf("Load3x3 trace sorted %d times, want one per group (%d)", got, groups)
	}
	if got := run(viaLoads).SortFallbacks; got != 9*groups {
		t.Fatalf("single-load trace sorted %d times, want one per load (%d)", got, 9*groups)
	}
}

// TestLoad3x3RecordsNineLoads pins the recorded addresses: read through
// loadAt, Load3x3 records exactly what nine Load calls would, row by row,
// in nine load slots of which it writes none.
func TestLoad3x3RecordsNineLoads(t *testing.T) {
	const stale = 0xdead
	var a, b Lane
	a.reset()
	for i := 0; i < 16; i++ {
		a.Load(stale)
	}
	a.reset()
	b.reset()
	a.Begin(0)
	b.Begin(0)
	a.Load(3)
	b.Load(3)
	a.Load3x3(1000, 8, 200)
	viaLoads(&b, 1000, 8, 200)
	a.Load3x3(5000, 16, 64)
	a.Load(7)
	viaLoads(&b, 5000, 16, 64)
	b.Load(7)
	a.closeUnit()
	if len(a.loads) != len(b.loads) {
		t.Fatalf("Load3x3 recorded %d load slots, single loads %d", len(a.loads), len(b.loads))
	}
	for i := 1; i < 10; i++ {
		if a.loads[i] != stale {
			t.Fatalf("Load3x3 wrote load slot %d (%d)", i, a.loads[i])
		}
	}
	var got []uintptr
	fs := a.fps
	for i := range a.loads {
		var addr uintptr
		addr, fs = loadAt(a.loads, fs, i)
		got = append(got, addr)
	}
	if fmt.Sprint(got) != fmt.Sprint(b.loads) {
		t.Fatalf("Load3x3 expands to %v, nine loads %v", got, b.loads)
	}
	if len(a.fps) != 2 || a.fps[0].start != 1 || a.fps[1].start != 10 {
		t.Fatalf("footprint index %+v, want entries starting at loads 1 and 10", a.fps)
	}
}

// TestFootprintRepeatShortcut shows the repeat shortcut fires where it
// should and only there. One warp of four lanes, 8 bytes apart, records
// one footprint whose rows lie 512 bytes apart: each row's three column
// instructions read one 64-byte line, so the second and third column of
// every row repeat the first (6 of the 9 instructions). The set-span
// shape's lines repeat too but span more lines than L1 has sets, so it
// must never fire there. TestFootprintABMatrix proves the resolved
// instructions leave the same Metrics, caches and statistics.
func TestFootprintRepeatShortcut(t *testing.T) {
	cfg := abConfig(4, 1, 1)
	run := func(k Kernel) uint64 {
		d := New(cfg)
		d.Run(Launch{Name: "repeat", Blocks: 2, ThreadsPerBlock: cfg.WarpSize, Kernel: k})
		return repeats(d)
	}
	row := func(l *Lane, b, th int) {
		l.Begin(0)
		l.Load3x3(uintptr(b*4096+th*8), 8, 512)
	}
	if got := run(row); got != 2*6 {
		t.Fatalf("shortcut resolved %d instructions, want 6 per footprint group (12)", got)
	}
	for _, sh := range fpShapes {
		switch sh.name {
		case "aligned":
			if got := run(sh.k((*Lane).Load3x3)); got == 0 {
				t.Fatal("aligned: the shortcut never fired")
			}
		case "set-span":
			if got := run(sh.k((*Lane).Load3x3)); got != 0 {
				t.Fatalf("set-span: the shortcut fired %d times on lines spanning every set", got)
			}
		}
	}
}

// TestKernelPanicRecoverable pins that a panic in a kernel body reaches
// Run's caller instead of killing the process from an SM goroutine, and
// that the reported panic is the lowest panicking SM's whatever the
// goroutine interleaving.
func TestKernelPanicRecoverable(t *testing.T) {
	d := New(abConfig(4, 3, 1))
	for rep := 0; rep < 20; rep++ {
		got := func() (r any) {
			defer func() { r = recover() }()
			d.Run(Launch{Name: "boom", Blocks: 6, ThreadsPerBlock: 8,
				Kernel: func(l *Lane, b, th int) {
					l.Begin(0)
					l.Load(uintptr(th * 8))
					if th == 5 && (b == 1 || b == 2) {
						panic(fmt.Sprintf("block %d", b))
					}
				}})
			return nil
		}()
		if got != "block 1" {
			t.Fatalf("rep %d: recovered %v, want the panic of SM 1 (block 1)", rep, got)
		}
	}
	// The panic state is cleared: the next launch runs normally.
	m := d.Run(Launch{Name: "after", Blocks: 2, ThreadsPerBlock: 4,
		Kernel: func(l *Lane, b, th int) { l.Begin(0); l.Flops(1) }})
	if m.Flops != 8 {
		t.Fatalf("launch after a recovered panic counted %d flops, want 8", m.Flops)
	}
}
