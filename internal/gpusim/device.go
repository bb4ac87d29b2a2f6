package gpusim

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// Kernel is a simulated GPU kernel body, invoked once per lane with the
// lane's trace recorder. block and thread identify the lane's position in
// the launch grid (blockIdx.x and threadIdx.x in CUDA terms).
type Kernel func(lane *Lane, block, thread int)

// Launch describes one kernel launch.
type Launch struct {
	// Name labels the launch in diagnostics.
	Name string
	// Blocks and ThreadsPerBlock define the launch grid.
	Blocks, ThreadsPerBlock int
	// Kernel is the lane body. Caches stay warm across launches of a
	// pipeline, as they do between dependent kernels on real hardware.
	Kernel Kernel
}

// Device is a simulated GPU. A Device is safe for sequential use; a single
// Run call parallelises internally across simulated SMs.
type Device struct {
	cfg      Config
	label    string
	sms      []*smState
	wg       sync.WaitGroup
	profiler *Profiler
	recorder Recorder

	// launch is the in-flight launch, published before the SM goroutines
	// spawn and read by runSM. A field rather than a goroutine argument
	// because `go f(args)` heap-allocates the argument frame; spawning the
	// pre-built zero-argument closures in spawn allocates nothing.
	launch Launch
	spawn  []func()

	// lineShift converts addresses to L1 lines with a shift when
	// L1LineBytes is a power of two (every shipped config); -1 selects the
	// division fallback. Equivalent by construction for power-of-two line
	// sizes, so the oracle replay's plain division (in this package's
	// tests) produces identical lines.
	lineShift int
}

// SetLabel names the device for diagnostics (beamsim's fleet summary
// prints its devices as "dev0", "dev1", ...).
func (d *Device) SetLabel(label string) { d.label = label }

// Label returns the diagnostic name set with SetLabel ("" if unset).
func (d *Device) Label() string { return d.label }

// Recorder receives the aggregated metrics of every kernel launch as it
// completes. Profiler implements it; external telemetry layers (the obs
// package's registry bridge) implement it to see the same stream without
// gpusim depending on them. Record is called from the goroutine driving
// Run, after the launch's SM replays have joined.
type Recorder interface {
	Record(name string, m Metrics)
}

// ReplayRecorder is optionally implemented by a Recorder to additionally
// receive the replay-engine statistics of each launch (the delta of
// Device.ReplayStats across the Run call).
type ReplayRecorder interface {
	RecordReplay(name string, s ReplayStats)
}

// AttachRecorder makes the device forward every launch's metrics to r, in
// addition to any attached profiler. Passing nil detaches.
func (d *Device) AttachRecorder(r Recorder) { d.recorder = r }

// ReplayStats counts replay-engine events: how much warp-level work the
// device has replayed and how often the streaming fast paths fired. The
// counters are cumulative across launches; Run reports per-launch deltas
// to an attached ReplayRecorder.
type ReplayStats struct {
	// WarpInsts is the number of warp-level instruction slots replayed
	// (the issue-slot count of Metrics, summed over every launch).
	WarpInsts uint64
	// MRUHits counts cache lookups answered by the last-line or MRU-way
	// fast path instead of an associative scan.
	MRUHits uint64
	// SortFallbacks counts the sorts the coalescer performed: one per warp
	// memory instruction whose lane addresses arrived out of line order
	// (stride-1 and broadcast patterns take the presorted fast path), and
	// one per Load3x3 footprint group whose bases arrived out of line
	// order, which orders all nine of the group's instructions.
	SortFallbacks uint64
	// LineShortCircuits counts warp memory instructions whose active
	// lanes all touched one cache line, skipping coalescing entirely.
	LineShortCircuits uint64
}

func (s ReplayStats) sub(o ReplayStats) ReplayStats {
	return ReplayStats{
		WarpInsts:         s.WarpInsts - o.WarpInsts,
		MRUHits:           s.MRUHits - o.MRUHits,
		SortFallbacks:     s.SortFallbacks - o.SortFallbacks,
		LineShortCircuits: s.LineShortCircuits - o.LineShortCircuits,
	}
}

// ReplayStats returns the cumulative replay statistics across every
// launch since the device was created. Like Run, it is meant for
// sequential use (call between launches, not concurrently with one).
func (d *Device) ReplayStats() ReplayStats {
	var s ReplayStats
	for _, sm := range d.sms {
		s.WarpInsts += sm.warpInsts
		s.SortFallbacks += sm.sortFallbacks
		s.LineShortCircuits += sm.lineHits
		s.MRUHits += sm.l1.mruHits + sm.l2.mruHits
	}
	return s
}

// smState is the replay state owned by one simulated SM. L2 is partitioned
// equally among SMs so SM replays are independent and deterministic.
// Every slice below is allocated once at New and reused for the device's
// lifetime: replaying a launch on a warm device performs zero heap
// allocations (pinned by TestRunZeroSteadyStateAllocs).
type smState struct {
	l1, l2 *cache
	m      Metrics
	lanes  []*Lane
	// scratch for coalescing (<= WarpSize entries per warp instruction);
	// fpLines is the second line buffer of a footprint group, which keeps
	// the previous instruction's lines for the repeat test (see
	// replayFootprint).
	lines   []uintptr
	fpLines []uintptr
	// scratch for divergent-kind grouping (<= WarpSize distinct kinds):
	// members collects the lanes alive at step t, group one kind's subset
	kinds   []uint16
	members []*Lane
	group   []*Lane
	// loadSl/storeSl mirror members during replayGroup: each member's
	// load/store address windows at unit step t, sliced once instead of
	// re-deriving unit bounds per memory instruction
	loadSl  [][]uintptr
	storeSl [][]uintptr
	// fpSl mirrors members during a replayGroup whose unit recorded
	// footprints: each member's not yet passed Load3x3 entries. runs
	// holds one footprint group's lane bases, sorted and grouped by L1
	// line (<= WarpSize entries).
	fpSl [][]footprint
	runs []lineRun
	// resident holds the current window's warps (<= ResidentWarps)
	resident [][]*Lane

	// replay statistics (owned by this SM's goroutine during Run)
	warpInsts     uint64
	sortFallbacks uint64
	lineHits      uint64
	// repeats counts footprint instructions resolved by the repeat
	// shortcut; only this package's tests read it.
	repeats uint64

	// panicked is the value a kernel body panicked with on this SM during
	// the current Run (nil if none); Run re-raises it after the join.
	panicked any
}

// lineRun summarizes the bases of one footprint group that lie in L1 line
// line: their lowest and highest byte offset into it.
type lineRun struct{ line, lo, hi uintptr }

// New creates a device with the given configuration.
func New(cfg Config) *Device {
	cfg.validate()
	if cfg.ResidentWarps < 1 {
		cfg.ResidentWarps = 1
	}
	d := &Device{cfg: cfg, sms: make([]*smState, cfg.NumSMs), lineShift: -1}
	if lb := cfg.L1LineBytes; lb&(lb-1) == 0 {
		d.lineShift = bits.TrailingZeros(uint(lb))
	}
	l2PerSM := cfg.L2Bytes / cfg.NumSMs
	if l2PerSM < cfg.L2LineBytes*cfg.L2Ways {
		l2PerSM = cfg.L2LineBytes * cfg.L2Ways
	}
	for i := range d.sms {
		sm := &smState{
			l1:       newCache(cfg.L1Bytes, cfg.L1LineBytes, cfg.L1Ways),
			l2:       newCache(l2PerSM, cfg.L2LineBytes, cfg.L2Ways),
			lanes:    make([]*Lane, cfg.WarpSize*cfg.ResidentWarps),
			lines:    make([]uintptr, 0, cfg.WarpSize),
			fpLines:  make([]uintptr, 0, cfg.WarpSize),
			kinds:    make([]uint16, 0, cfg.WarpSize),
			members:  make([]*Lane, 0, cfg.WarpSize),
			group:    make([]*Lane, 0, cfg.WarpSize),
			loadSl:   make([][]uintptr, 0, cfg.WarpSize),
			storeSl:  make([][]uintptr, 0, cfg.WarpSize),
			fpSl:     make([][]footprint, 0, cfg.WarpSize),
			runs:     make([]lineRun, 0, cfg.WarpSize),
			resident: make([][]*Lane, 0, cfg.ResidentWarps),
		}
		for j := range sm.lanes {
			sm.lanes[j] = &Lane{}
		}
		d.sms[i] = sm
		smID := i
		d.spawn = append(d.spawn, func() { d.runSM(smID) })
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Run executes the launch and returns its metrics. Thread blocks are
// distributed round-robin over SMs (approximating the hardware block
// scheduler); each SM replays its blocks warp by warp through its private
// L1 and L2 partition.
//
// A panic in a kernel body does not kill the process from an SM
// goroutine: every SM finishes or stops, and Run then re-panics on the
// caller's goroutine with the panic value of the lowest SM id that
// panicked, so callers can recover it. The launch's metrics are lost and
// the caches keep whatever part of it was replayed; a recovered device
// should be treated as unusable.
func (d *Device) Run(l Launch) Metrics {
	if l.Blocks < 1 || l.ThreadsPerBlock < 1 {
		panic(fmt.Sprintf("gpusim: empty launch %q (%d blocks x %d threads)", l.Name, l.Blocks, l.ThreadsPerBlock))
	}
	if l.ThreadsPerBlock > d.cfg.MaxThreadsPerBlock {
		panic(fmt.Sprintf("gpusim: launch %q requests %d threads per block (max %d)",
			l.Name, l.ThreadsPerBlock, d.cfg.MaxThreadsPerBlock))
	}
	statsBefore := d.ReplayStats()
	d.launch = l
	for smID := range d.sms {
		d.sms[smID].m = Metrics{warpSize: d.cfg.WarpSize}
		d.wg.Add(1)
		go d.spawn[smID]()
	}
	d.wg.Wait()
	d.launch = Launch{}
	for _, sm := range d.sms {
		if r := sm.panicked; r != nil {
			for _, sm := range d.sms {
				sm.panicked = nil
			}
			panic(r)
		}
	}
	return d.aggregate(l.Name, statsBefore)
}

// aggregate folds the per-SM metrics of the launch just replayed into the
// launch's Metrics, applies the time model, and reports the result (and
// the replay statistics accumulated since statsBefore) to the attached
// profiler and recorder.
func (d *Device) aggregate(name string, statsBefore ReplayStats) Metrics {
	total := Metrics{Kernels: 1, warpSize: d.cfg.WarpSize}
	perSMPeak := d.cfg.PeakGflops * 1e9 / float64(d.cfg.NumSMs)
	perSMBW := d.cfg.MeasuredBandwidthGBs * 1e9 / float64(d.cfg.NumSMs)
	perSML2BW := d.cfg.L2BandwidthGBs * 1e9 / float64(d.cfg.NumSMs)
	var worst float64
	for _, sm := range d.sms {
		m := &sm.m
		// Counters accumulate directly; times are derived per SM below.
		total.ThreadInsts += m.ThreadInsts
		total.IssuedWarpInsts += m.IssuedWarpInsts
		total.Flops += m.Flops
		total.IssuedFlops += m.IssuedFlops
		total.LoadReqBytes += m.LoadReqBytes
		total.StoreReqBytes += m.StoreReqBytes
		total.L1TransferBytes += m.L1TransferBytes
		total.L1Accesses += m.L1Accesses
		total.L1Hits += m.L1Hits
		total.L2Accesses += m.L2Accesses
		total.L2Hits += m.L2Hits
		total.DRAMReadBytes += m.DRAMReadBytes
		total.DRAMWriteBytes += m.DRAMWriteBytes

		// Per-SM time model: issued flop slots retire at the SM's peak
		// rate; memory time charges DRAM traffic against the SM's
		// bandwidth share and L2 hits against the L2 bandwidth share.
		// Compute and memory overlap, so the SM is busy for their max.
		compute := float64(m.IssuedFlops*uint64(d.cfg.WarpSize)) / perSMPeak
		l2HitBytes := m.L2Hits * uint64(d.cfg.L2LineBytes)
		dram := float64(m.DRAMReadBytes+m.DRAMWriteBytes)/perSMBW +
			float64(l2HitBytes)/perSML2BW
		t := compute
		if dram > t {
			t = dram
		}
		if t > worst {
			worst = t
			total.ComputeTime = compute
			total.MemTime = dram
		}
	}
	// The kernel finishes when the busiest SM does.
	total.Time = worst
	if d.profiler != nil {
		d.profiler.Record(name, total)
	}
	if d.recorder != nil {
		d.recorder.Record(name, total)
		if rr, ok := d.recorder.(ReplayRecorder); ok {
			rr.RecordReplay(name, d.ReplayStats().sub(statsBefore))
		}
	}
	return total
}

// runSM replays one SM's share of the in-flight launch (d.launch,
// published by Run before the spawn). Run must stay allocation-free in
// steady state, so this takes no launch argument.
func (d *Device) runSM(smID int) {
	sm := d.sms[smID]
	defer d.wg.Done()
	defer func() { sm.panicked = recover() }()
	l := d.launch
	for block := smID; block < l.Blocks; block += d.cfg.NumSMs {
		d.runBlock(sm, l, block)
	}
}

// runBlock traces and replays one thread block on an SM with the
// streaming engine. Warps are processed in windows of ResidentWarps whose
// unit execution interleaves round-robin, so the window's combined
// working set contends for the SM's caches the way concurrently resident
// warps do on hardware.
//
// Record and replay are fused at warp granularity: as soon as one warp's
// <= WarpSize lanes are traced, its first unit step replays while the
// lanes' units/loads/stores arrays are still cache-hot, instead of
// materializing the whole resident window first. Tracing never touches
// the simulated caches, so the replay order — unit step t of every
// resident warp in warp order, then step t+1 — is exactly the oracle's;
// the window cursor then walks the remaining steps once the window is
// fully traced. The lane arenas are reused window after window (and, for
// single-warp windows, warp after warp), so a warm device re-traces into
// already-sized slices.
func (d *Device) runBlock(sm *smState, l Launch, block int) {
	ws := d.cfg.WarpSize
	window := d.cfg.ResidentWarps
	warps := (l.ThreadsPerBlock + ws - 1) / ws
	for w0 := 0; w0 < warps; w0 += window {
		w1 := w0 + window
		if w1 > warps {
			w1 = warps
		}
		sm.resident = sm.resident[:0]
		maxUnits := 0
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
				if len(lane.units) > maxUnits {
					maxUnits = len(lane.units)
				}
			}
			sm.resident = append(sm.resident, lanes)
			// Replay the freshly traced warp's first unit step while its
			// trace is hot; steps of warps traced earlier in the window
			// cannot run yet (their step-t replay must follow this
			// warp's step t-1 in the interleaved order).
			d.replayWarpStep(sm, lanes, 0)
		}
		// Window cursor: step 0 replayed during tracing; interleave the
		// remaining unit steps round-robin across the resident warps.
		for t := 1; t < maxUnits; t++ {
			for _, lanes := range sm.resident {
				d.replayWarpStep(sm, lanes, t)
			}
		}
	}
}

// replayWarpStep replays unit step t of one warp in SIMT lockstep,
// charging instruction issue, divergence, coalescing, caches and DRAM.
// The distinct unit kinds present at step t are collected by sorted
// insertion into fixed-capacity scratch (<= WarpSize entries), replacing
// the oracle's append-then-sort.Slice — no allocation, no closure, and
// the uniform case (one kind) costs a single comparison per lane. A fully
// convergent step — every lane alive at t with one shared kind, the
// dominant shape — skips the member-gathering rescan and replays the warp
// directly.
func (d *Device) replayWarpStep(sm *smState, lanes []*Lane, t int) {
	kinds := sm.kinds[:0]
	alive := sm.members[:0]
	for _, lane := range lanes {
		if t >= len(lane.units) {
			continue
		}
		alive = append(alive, lane)
		k := lane.units[t].kind
		i := len(kinds)
		for i > 0 && kinds[i-1] > k {
			i--
		}
		if i > 0 && kinds[i-1] == k {
			continue
		}
		kinds = append(kinds, 0)
		copy(kinds[i+1:], kinds[i:])
		kinds[i] = k
	}
	if len(kinds) == 0 {
		return
	}
	if len(kinds) == 1 {
		// Convergent step (full warp or trip-count survivors): the alive
		// lanes, already collected in warp order, are the one group.
		d.replayGroup(sm, alive, t)
		return
	}
	// Divergent kinds at the same step serialise; each group issues
	// independently with only its members active. Groups are re-gathered
	// from the alive set (fewer probes than the full warp, and the
	// t < len(units) check is already settled).
	for _, k := range kinds {
		group := sm.group[:0]
		for _, lane := range alive {
			if lane.units[t].kind == k {
				group = append(group, lane)
			}
		}
		d.replayGroup(sm, group, t)
	}
}

// replayGroup issues the t-th unit of the member lanes as one lockstep
// group. The stats pass only reads unit bounds; the members' load/store
// address windows are sliced into scratch once per group — and only when
// the group actually issues memory instructions, so flop-only units pay
// nothing. The gather loops then convert lane addresses straight to cache
// lines (a shift when the line size is a power of two, which it is for
// every shipped config), detecting the single-line and presorted
// coalescing shapes on the fly so walkLines never re-scans. Units in
// which some member recorded Load3x3 footprints replay their loads through
// replayFootprintLoads instead.
func (d *Device) replayGroup(sm *smState, members []*Lane, t int) {
	m := &sm.m
	var maxInsts, maxFlops, maxLoads, maxStores uint64
	var fps uint32 // nonzero iff some member recorded a footprint in unit t
	for _, lane := range members {
		u := &lane.units[t]
		fps |= u.fpEnd - u.fpStart
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
	if maxLoads > 0 {
		loadSl := sm.loadSl[:0]
		for _, lane := range members {
			u := &lane.units[t]
			loadSl = append(loadSl, lane.loads[u.loadStart:u.loadEnd])
		}
		if fps != 0 {
			d.replayFootprintLoads(sm, members, loadSl, t, int(maxLoads))
		} else {
			for i := 0; i < int(maxLoads); i++ {
				n, same, sorted := d.gatherLines(sm, loadSl, nil, i)
				m.LoadReqBytes += 8 * uint64(n)
				d.walkLines(sm, sm.lines[:n], same, sorted, true)
			}
		}
	}
	if maxStores > 0 {
		storeSl := sm.storeSl[:0]
		for _, lane := range members {
			u := &lane.units[t]
			storeSl = append(storeSl, lane.stores[u.stStart:u.stEnd])
		}
		for i := 0; i < int(maxStores); i++ {
			n, same, sorted := d.gatherLines(sm, storeSl, nil, i)
			m.StoreReqBytes += 8 * uint64(n)
			d.walkLines(sm, sm.lines[:n], same, sorted, false)
		}
	}
}

// replayFootprintLoads replays the loads of unit t when some member
// recorded footprints in it: each load index is first offered to
// replayFootprint, which issues a whole footprint group at once, and
// otherwise replays alone exactly as replayGroup does, with the addresses
// of footprint slots expanded by loadAt.
func (d *Device) replayFootprintLoads(sm *smState, members []*Lane, loadSl [][]uintptr, t, maxLoads int) {
	fpSl := sm.fpSl[:0]
	for _, lane := range members {
		u := &lane.units[t]
		fpSl = append(fpSl, lane.fps[u.fpStart:u.fpEnd])
	}
	for i := 0; i < maxLoads; i++ {
		if d.replayFootprint(sm, loadSl, fpSl, i) {
			i += 8
			continue
		}
		n, same, sorted := d.gatherLines(sm, loadSl, fpSl, i)
		sm.m.LoadReqBytes += 8 * uint64(n)
		d.walkLines(sm, sm.lines[:n], same, sorted, true)
	}
}

// replayFootprint issues loads i..i+8 of the member windows as one
// footprint group, if they form one: every member with more than i loads
// must start a Load3x3 at index i (so the same lanes are active for all
// nine loads), and all those footprints must share (col, row). It reports
// whether it did; if not, the caller replays load i alone. fpSl holds each
// member's footprints not yet passed and is advanced in place.
//
// The group reads one base a0 per lane instead of nine addresses. For a
// fixed offset o, (a0+o)/L1LineBytes never decreases as a0 grows, so
// ordering the bases once orders the lines of all nine instructions. The
// bases are insertion-sorted into runs that share an L1 line q; writing a
// base as q*L + m with m < L, (a0+o)/L = q + (m+o)/L takes at most two
// values over a run, at its lowest and highest m. Each instruction's
// sorted unique lines are merged from the runs and walked by walkLines
// exactly as the per-instruction path would. A group whose addresses
// would wrap around the address space is declined, since the identity
// needs a0+o not to overflow.
//
// Repeat shortcut: consecutive instructions of a group often touch the
// same lines (the columns of a footprint row inside one line). When an
// instruction's sorted unique lines equal the previous instruction's and
// span fewer lines than L1 has sets, the lines lie in distinct sets (a
// window of fewer than sets consecutive lines has distinct residues
// modulo sets), so the previous walk left each one resident as its set's
// most recently used way, and no other L1 lookup came between. The
// per-instruction walk would then hit each line on its first probe and
// touch no L2. Such hits change neither the tags, nor the recency order,
// nor the last-line state (the previous walk ended on the same last
// line), so only the MRU-hit count and the counters advance, as
// walkLines would advance them.
func (d *Device) replayFootprint(sm *smState, loadSl [][]uintptr, fpSl [][]footprint, i int) bool {
	lineBytes := uintptr(d.cfg.L1LineBytes)
	runs := sm.runs[:0]
	var col, row, top uintptr
	active := 0
	sorted := true
	for k, sl := range loadSl {
		if i >= len(sl) {
			continue
		}
		fs := fpSl[k]
		for len(fs) > 0 && int(fs[0].start)+9 <= i {
			fs = fs[1:]
		}
		fpSl[k] = fs
		if len(fs) == 0 || int(fs[0].start) != i {
			return false
		}
		f := &fs[0]
		if active == 0 {
			col, row = f.col, f.row
		} else if f.col != col || f.row != row {
			return false
		}
		active++
		if f.a0 > top {
			top = f.a0
		}
		q := d.lineOf(f.a0)
		m := f.a0 - q*lineBytes
		j := len(runs)
		for j > 0 && runs[j-1].line > q {
			j--
		}
		if j > 0 && runs[j-1].line == q {
			rn := &runs[j-1]
			rn.lo, rn.hi = min(rn.lo, m), max(rn.hi, m)
			continue
		}
		if j < len(runs) {
			sorted = false
		}
		runs = append(runs, lineRun{})
		copy(runs[j+1:], runs[j:])
		runs[j] = lineRun{line: q, lo: m, hi: m}
	}
	var offs [9]uintptr
	for r := uintptr(0); r < 3; r++ {
		for c := uintptr(0); c < 3; c++ {
			o := r*row + c*col
			if top+o < top {
				return false
			}
			offs[3*r+c] = o
		}
	}
	if !sorted {
		sm.sortFallbacks++
	}
	m := &sm.m
	l1 := sm.l1
	buf, spare := sm.lines[:0], sm.fpLines[:0]
	var prev []uintptr
	for _, o := range offs {
		uniq := buf[:0]
		for _, rn := range runs {
			lo := rn.line + d.lineOf(rn.lo+o)
			hi := rn.line + d.lineOf(rn.hi+o)
			if len(uniq) == 0 || uniq[len(uniq)-1] != lo {
				uniq = append(uniq, lo)
			}
			if hi != lo {
				uniq = append(uniq, hi)
			}
		}
		m.LoadReqBytes += 8 * uint64(active)
		if n := len(uniq); n > 0 && uniq[n-1]-uniq[0] < uintptr(l1.sets) && slices.Equal(uniq, prev) {
			l1.mruHits += uint64(n)
			m.L1TransferBytes += uint64(n) * uint64(d.cfg.L1LineBytes)
			m.L1Accesses += uint64(n)
			m.L1Hits += uint64(n)
			if n == 1 {
				sm.lineHits++
			}
			sm.repeats++
		} else {
			d.walkLines(sm, uniq, len(uniq) == 1, true, true)
		}
		prev = uniq
		buf, spare = spare, buf
	}
	return true
}

// lineOf converts an address to its L1 line.
func (d *Device) lineOf(a uintptr) uintptr {
	if d.lineShift >= 0 {
		return a >> uint(d.lineShift)
	}
	return a / uintptr(d.cfg.L1LineBytes)
}

// gatherLines collects the i-th address of every window into the line
// scratch, converted to L1 lines, noting whether all lines coincide and
// whether they arrived non-decreasing. Returns the number gathered. fps,
// when non-nil, holds each window's footprints not yet passed: addresses
// then come from loadAt, which expands footprint slots and advances fps.
func (d *Device) gatherLines(sm *smState, windows [][]uintptr, fps [][]footprint, i int) (n int, same, sorted bool) {
	lineBytes := uintptr(d.cfg.L1LineBytes)
	shift := d.lineShift
	lines := sm.lines[:0]
	var first, prev uintptr
	same, sorted = true, true
	for k, sl := range windows {
		if i >= len(sl) {
			continue
		}
		var a uintptr
		if fps != nil {
			a, fps[k] = loadAt(sl, fps[k], i)
		} else {
			a = sl[i]
		}
		var ln uintptr
		if shift >= 0 {
			ln = a >> uint(shift)
		} else {
			ln = a / lineBytes
		}
		if len(lines) == 0 {
			first = ln
		} else {
			if ln != first {
				same = false
			}
			if ln < prev {
				sorted = false
			}
		}
		prev = ln
		lines = append(lines, ln)
	}
	return len(lines), same, sorted
}

// walkLines coalesces the line scratch of one warp memory instruction
// into unique cache lines and walks them through the hierarchy. Loads
// consult L1 then L2 then DRAM; stores write through to DRAM at line
// granularity (non-allocating, like Kepler's global store path).
//
// The streaming engine's coalescer exploits the patterns warps actually
// produce, detected by the caller during the gather: if every active lane
// touched one line (broadcast, or a stride-1 warp inside one line) the
// sort and dedup are skipped entirely; if the lanes' lines arrived
// already non-decreasing (stride-1 across lines, the dominant shape) the
// presorted order is kept; only genuinely scattered accesses pay an
// in-place insertion sort over the <= WarpSize-entry scratch —
// allocation-free, unlike sort.Slice.
func (d *Device) walkLines(sm *smState, lines []uintptr, same, sorted, isLoad bool) {
	if len(lines) == 0 {
		return
	}
	var uniq []uintptr
	if same {
		sm.lineHits++
		uniq = lines[:1]
	} else {
		if !sorted {
			sm.sortFallbacks++
			insertionSortLines(lines)
		}
		uniq = lines[:0]
		for i, ln := range lines {
			if i == 0 || ln != uniq[len(uniq)-1] {
				uniq = append(uniq, ln)
			}
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

// insertionSortLines sorts the line scratch in place. The slice holds at
// most WarpSize entries and is nearly sorted for every realistic access
// pattern, where insertion sort beats the generic sort by a wide margin
// and allocates nothing.
func insertionSortLines(lines []uintptr) {
	for i := 1; i < len(lines); i++ {
		v := lines[i]
		j := i - 1
		for j >= 0 && lines[j] > v {
			lines[j+1] = lines[j]
			j--
		}
		lines[j+1] = v
	}
}
