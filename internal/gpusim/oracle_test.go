package gpusim

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// This file preserves the pre-streaming replay engine verbatim as the
// equivalence oracle; runOracle replays a launch with it. It materializes
// each resident window's traces before replaying, allocates kind/member
// slices per warp step, orders kinds and coalesced lines with sort.Slice,
// and consults caches of its own (scanCache) through the plain
// associative scan over LRU stamps — exactly the engine the streaming
// path replaced. The A/B suite (TestEngineABMatrix and
// TestFootprintABMatrix) proves both engines produce ==-equal Metrics and
// the same cache state for every kernel, divergence shape, warp size and
// resident-window configuration, and BenchmarkReplayFloor holds the
// streaming engine's speedup against it. Above this package, the
// committed identity digests of the kernels and fleet packages pin
// outputs the oracle reproduces. The oracle reads every load from
// Lane.loads; Load3x3 only reserves its slots there, so runOracle fills
// them (expandFootprints) as each lane's trace completes, before anything
// replays it.

// oracle is a device replayed by the oracle engine. The Device supplies
// the lane arenas, per-SM metrics and the time model; each SM's caches
// are the oracle's scan caches, which shadow the Device's streaming ones.
type oracle struct {
	d   *Device
	sms []*oracleSM
}

// oracleSM is one SM's replay state under the oracle engine.
type oracleSM struct {
	*smState
	l1, l2 *scanCache
	addrs  []uintptr
}

// newOracle builds an oracle device for cfg, with caches sized as New
// sizes the streaming ones.
func newOracle(cfg Config) *oracle {
	d := New(cfg)
	cfg = d.cfg
	l2PerSM := max(cfg.L2Bytes/cfg.NumSMs, cfg.L2LineBytes*cfg.L2Ways)
	o := &oracle{d: d}
	for _, sm := range d.sms {
		o.sms = append(o.sms, &oracleSM{
			smState: sm,
			l1:      newScanCache(cfg.L1Bytes, cfg.L1LineBytes, cfg.L1Ways),
			l2:      newScanCache(l2PerSM, cfg.L2LineBytes, cfg.L2Ways),
		})
	}
	return o
}

// runOracle is Device.Run with the oracle engine: it fans the SMs out on
// goroutines as Run does, replays each SM's blocks with runBlockOracle,
// and aggregates through the same time model, profiler and recorder.
func runOracle(o *oracle, l Launch) Metrics {
	d := o.d
	kernel := l.Kernel
	l.Kernel = func(lane *Lane, block, thread int) {
		kernel(lane, block, thread)
		expandFootprints(lane)
	}
	statsBefore := d.ReplayStats()
	var wg sync.WaitGroup
	for smID, sm := range o.sms {
		sm.m = Metrics{warpSize: d.cfg.WarpSize}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for block := smID; block < l.Blocks; block += d.cfg.NumSMs {
				d.runBlockOracle(sm, l, block)
			}
		}()
	}
	wg.Wait()
	return d.aggregate(l.Name, statsBefore)
}

// sameAsOracle fails unless every SM's L1 and L2 of the streaming device
// d are in the state of o's: the same tags, the recency order o's stamps
// give, and the same last-line state.
func sameAsOracle(t *testing.T, tag string, d *Device, o *oracle) {
	t.Helper()
	for i, sm := range d.sms {
		osm := o.sms[i]
		for _, c := range []struct {
			name string
			c    *cache
			sc   *scanCache
		}{{"L1", sm.l1, osm.l1}, {"L2", sm.l2, osm.l2}} {
			if sa, so := cacheState(c.c, false), c.sc.state(); sa != so {
				t.Fatalf("%s: SM %d %s state differs from the oracle's\n%s\n%s", tag, i, c.name, sa, so)
			}
		}
	}
}

// expandFootprints writes the nine addresses of each of a traced lane's
// footprints into the load slots Load3x3 reserved for them, so that the
// lane's loads read as the nine single Load calls each footprint stands
// for.
func expandFootprints(lane *Lane) {
	lane.closeUnit()
	for _, u := range lane.units {
		sl := lane.loads[u.loadStart:u.loadEnd]
		fs := lane.fps[u.fpStart:u.fpEnd]
		for i := range sl {
			sl[i], fs = loadAt(sl, fs, i)
		}
	}
}

// runBlockOracle traces and replays one thread block on an SM. Warps are
// processed in windows of ResidentWarps whose unit execution interleaves
// round-robin, so the window's combined working set contends for the SM's
// caches the way concurrently resident warps do on hardware.
func (d *Device) runBlockOracle(sm *oracleSM, l Launch, block int) {
	ws := d.cfg.WarpSize
	window := d.cfg.ResidentWarps
	warps := (l.ThreadsPerBlock + ws - 1) / ws
	for w0 := 0; w0 < warps; w0 += window {
		w1 := w0 + window
		if w1 > warps {
			w1 = warps
		}
		// Trace every lane of the resident window.
		var resident [][]*Lane
		for w := w0; w < w1; w++ {
			warpStart := w * ws
			n := ws
			if warpStart+n > l.ThreadsPerBlock {
				n = l.ThreadsPerBlock - warpStart
			}
			lanes := sm.lanes[(w-w0)*ws : (w-w0)*ws+n]
			for i := 0; i < n; i++ {
				lane := lanes[i]
				lane.reset()
				l.Kernel(lane, block, warpStart+i)
				lane.closeUnit()
			}
			resident = append(resident, lanes)
		}
		// Interleave the warps' unit steps round-robin.
		maxUnits := 0
		for _, lanes := range resident {
			for _, lane := range lanes {
				if len(lane.units) > maxUnits {
					maxUnits = len(lane.units)
				}
			}
		}
		for t := 0; t < maxUnits; t++ {
			for _, lanes := range resident {
				d.replayWarpStepOracle(sm, lanes, t)
			}
		}
	}
}

// replayWarpStepOracle replays unit step t of one warp in SIMT lockstep,
// charging instruction issue, divergence, coalescing, caches and DRAM.
func (d *Device) replayWarpStepOracle(sm *oracleSM, lanes []*Lane, t int) {
	var kinds []uint16
	var members []*Lane
	for _, lane := range lanes {
		if t < len(lane.units) {
			k := lane.units[t].kind
			seen := false
			for _, kk := range kinds {
				if kk == k {
					seen = true
					break
				}
			}
			if !seen {
				kinds = append(kinds, k)
			}
		}
	}
	if len(kinds) == 0 {
		return
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	// Divergent kinds at the same step serialise; each group issues
	// independently with only its members active.
	for _, k := range kinds {
		members = members[:0]
		for _, lane := range lanes {
			if t < len(lane.units) && lane.units[t].kind == k {
				members = append(members, lane)
			}
		}
		d.replayGroupOracle(sm, members, t)
	}
}

// replayGroupOracle issues the t-th unit of the member lanes as one
// lockstep group.
func (d *Device) replayGroupOracle(sm *oracleSM, members []*Lane, t int) {
	m := &sm.m
	var maxInsts, maxFlops, maxLoads, maxStores uint64
	for _, lane := range members {
		u := lane.units[t]
		loads := uint64(u.loadEnd - u.loadStart)
		stores := uint64(u.stEnd - u.stStart)
		insts := uint64(u.flops) + loads + stores
		m.ThreadInsts += insts
		m.Flops += uint64(u.flops)
		if insts > maxInsts {
			maxInsts = insts
		}
		if uint64(u.flops) > maxFlops {
			maxFlops = uint64(u.flops)
		}
		if loads > maxLoads {
			maxLoads = loads
		}
		if stores > maxStores {
			maxStores = stores
		}
	}
	m.IssuedWarpInsts += maxInsts
	m.IssuedFlops += maxFlops
	sm.warpInsts += maxInsts

	// Loads: the i-th load of every member forms one warp memory
	// instruction; unique L1 lines among active lanes become transactions.
	for i := uint64(0); i < maxLoads; i++ {
		sm.addrs = sm.addrs[:0]
		for _, lane := range members {
			u := lane.units[t]
			if u.loadStart+uint32(i) < u.loadEnd {
				sm.addrs = append(sm.addrs, lane.loads[u.loadStart+uint32(i)])
			}
		}
		m.LoadReqBytes += 8 * uint64(len(sm.addrs))
		d.accessLinesOracle(sm, sm.addrs, true)
	}
	for i := uint64(0); i < maxStores; i++ {
		sm.addrs = sm.addrs[:0]
		for _, lane := range members {
			u := lane.units[t]
			if u.stStart+uint32(i) < u.stEnd {
				sm.addrs = append(sm.addrs, lane.stores[u.stStart+uint32(i)])
			}
		}
		m.StoreReqBytes += 8 * uint64(len(sm.addrs))
		d.accessLinesOracle(sm, sm.addrs, false)
	}
}

// accessLinesOracle coalesces the lane addresses of one warp memory
// instruction into unique cache lines and walks them through the
// hierarchy. Loads consult L1 then L2 then DRAM; stores write through to
// DRAM at line granularity (non-allocating, like Kepler's global store
// path).
func (d *Device) accessLinesOracle(sm *oracleSM, addrs []uintptr, isLoad bool) {
	if len(addrs) == 0 {
		return
	}
	line := uintptr(d.cfg.L1LineBytes)
	sm.lines = sm.lines[:0]
	for _, a := range addrs {
		sm.lines = append(sm.lines, a/line)
	}
	sort.Slice(sm.lines, func(i, j int) bool { return sm.lines[i] < sm.lines[j] })
	uniq := sm.lines[:0]
	for i, ln := range sm.lines {
		if i == 0 || ln != uniq[len(uniq)-1] {
			uniq = append(uniq, ln)
		}
	}
	m := &sm.m
	if isLoad {
		m.L1TransferBytes += uint64(len(uniq)) * uint64(d.cfg.L1LineBytes)
		for _, ln := range uniq {
			m.L1Accesses++
			if sm.l1.access(ln) {
				m.L1Hits++
				continue
			}
			m.L2Accesses++
			if sm.l2.access(ln) {
				m.L2Hits++
				continue
			}
			m.DRAMReadBytes += uint64(d.cfg.L2LineBytes)
		}
	} else {
		m.DRAMWriteBytes += uint64(len(uniq)) * uint64(d.cfg.L2LineBytes)
	}
}

// scanCache is the pre-streaming cache: a set-associative LRU cache whose
// LRU state is a timestamp per way, written on every lookup, with tick,
// hit and miss counters. It also notes the tag of its latest lookup, so
// its state compares with a streaming cache's last-line state.
type scanCache struct {
	sets, ways   int
	tags         []uintptr
	stamp        []uint64
	tick         uint64
	hits, misses uint64
	lastTag      uintptr
}

// newScanCache sizes a scan cache as newCache sizes a streaming one.
func newScanCache(totalBytes, lineBytes, ways int) *scanCache {
	sets := max(totalBytes/lineBytes/ways, 1)
	return &scanCache{
		sets:  sets,
		ways:  ways,
		tags:  make([]uintptr, sets*ways),
		stamp: make([]uint64, sets*ways),
	}
}

// access is the pre-streaming lookup: one pass over the set's ways, hit
// check and LRU victim tracking interleaved, the first way with the
// lowest stamp the victim.
func (c *scanCache) access(line uintptr) bool {
	c.tick++
	set := int(line % uintptr(c.sets))
	base := set * c.ways
	tag := line + 1
	c.lastTag = tag
	var victim int
	oldest := ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.stamp[i] = c.tick
			c.hits++
			return true
		}
		if c.stamp[i] < oldest {
			oldest = c.stamp[i]
			victim = i
		}
	}
	c.misses++
	c.tags[victim] = tag
	c.stamp[victim] = c.tick
	return false
}

// order returns the recency order the stamps give, laid out as the
// streaming cache's order: per set, ways by decreasing stamp, and ways
// never touched (stamp 0) last by decreasing index, so the tail is the
// way the stamp scan evicts next.
func (c *scanCache) order() []uint8 {
	ord := make([]uint8, len(c.stamp))
	for set := 0; set < c.sets; set++ {
		base := set * c.ways
		o := ord[base : base+c.ways]
		for w := range o {
			o[w] = uint8(w)
		}
		sort.Slice(o, func(i, j int) bool {
			si, sj := c.stamp[base+int(o[i])], c.stamp[base+int(o[j])]
			if si != sj {
				return si > sj
			}
			return o[i] > o[j]
		})
	}
	return ord
}

// state renders the scan cache as cacheState renders a streaming cache:
// tags, recency order and last-line state.
func (c *scanCache) state() string { return fmt.Sprint(c.tags, c.order(), c.lastTag) }
