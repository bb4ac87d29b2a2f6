package gpusim

// Lane is the per-thread trace recorder handed to kernel functions. A
// kernel expresses its execution as a sequence of work units — the
// granularity at which SIMT lockstep is modelled. Within a warp, the i-th
// unit of every lane executes together when the unit kinds match; lanes
// whose unit kind differs at the same position serialise (branch
// divergence), and lanes that have run out of units sit idle (trip-count
// divergence). Within matching units, the i-th Load of every lane forms one
// warp memory instruction for the coalescer.
//
// All global-memory accesses are 8 bytes (double precision), matching the
// simulation's data, so Load/Store take only an address.
type Lane struct {
	// ThreadID is the lane's thread index within its block; BlockID the
	// block index within the launch.
	ThreadID, BlockID int

	units  []unit
	loads  []uintptr
	stores []uintptr
	// fps indexes the loads recorded by Load3x3, one entry per footprint.
	// The expanded addresses stay in loads, so everything that reads them
	// (the oracle, the per-instruction replay) is unaffected.
	fps []footprint
}

type unit struct {
	kind      uint16
	flops     uint32
	loadStart uint32
	loadEnd   uint32
	stStart   uint32
	stEnd     uint32
	fpStart   uint32
	fpEnd     uint32
}

// footprint is one Load3x3: its nine loads start at index start of their
// unit's load window and read a0 + r*row + c*col for r, c in 0..2.
type footprint struct {
	start        uint32
	a0, col, row uintptr
}

// Begin opens a new work unit of the given kind, closing the previous one.
// Kind values are kernel-defined labels for basic blocks; two lanes of a
// warp proceed in lockstep only while their current units share a kind.
// Lanes are arena-reused across warps, so after the first trace sized the
// units slice, reopening a slot writes in place instead of appending.
func (l *Lane) Begin(kind int) {
	l.closeUnit()
	n := len(l.units)
	if n < cap(l.units) {
		l.units = l.units[:n+1]
	} else {
		l.units = append(l.units, unit{})
	}
	l.units[n] = unit{
		kind:      uint16(kind),
		loadStart: uint32(len(l.loads)),
		stStart:   uint32(len(l.stores)),
		fpStart:   uint32(len(l.fps)),
	}
}

func (l *Lane) closeUnit() {
	if n := len(l.units); n > 0 {
		l.units[n-1].loadEnd = uint32(len(l.loads))
		l.units[n-1].stEnd = uint32(len(l.stores))
		l.units[n-1].fpEnd = uint32(len(l.fps))
	}
}

// ensure opens an implicit unit of kind 0 when a kernel records work
// without calling Begin first.
func (l *Lane) ensure() {
	if len(l.units) == 0 {
		l.Begin(0)
	}
}

// Flops charges n double-precision floating-point operations to the
// current unit.
func (l *Lane) Flops(n int) {
	l.ensure()
	l.units[len(l.units)-1].flops += uint32(n)
}

// Load records an 8-byte global-memory read at the simulated address addr.
func (l *Lane) Load(addr uintptr) {
	l.ensure()
	l.loads = append(l.loads, addr)
}

// Load3x3 records the nine 8-byte reads of a 3x3 stencil footprint:
// exactly the addresses, in exactly the order, of the nine calls
// Load(a0 + r*row + c*col) with r the outer and c the inner loop over
// 0..2. The streaming replay can then issue the footprint's nine warp
// memory instructions together (see replayFootprint); every other reader
// of the trace sees nine ordinary loads.
func (l *Lane) Load3x3(a0, col, row uintptr) {
	l.ensure()
	start := uint32(len(l.loads)) - l.units[len(l.units)-1].loadStart
	r1, r2 := a0+row, a0+2*row
	l.loads = append(l.loads,
		a0, a0+col, a0+2*col,
		r1, r1+col, r1+2*col,
		r2, r2+col, r2+2*col)
	l.fps = append(l.fps, footprint{start: start, a0: a0, col: col, row: row})
}

// Store records an 8-byte global-memory write at the simulated address
// addr. Stores are counted in the traffic totals but, like a write-through
// non-allocating GPU L1, do not populate the L1 cache.
func (l *Lane) Store(addr uintptr) {
	l.ensure()
	l.stores = append(l.stores, addr)
}

// Units returns the number of recorded work units (useful in tests).
func (l *Lane) Units() int { return len(l.units) }

// LaneFlops returns the total flops recorded (useful in tests). It is
// read-only: the flops counter of every unit — including the still-open
// one — is maintained live by Flops, so no closeUnit is needed, and a
// mid-trace caller must not have its open unit's load/store bounds
// stamped early.
func (l *Lane) LaneFlops() uint64 {
	var s uint64
	for _, u := range l.units {
		s += uint64(u.flops)
	}
	return s
}

// reset clears the trace for reuse, keeping capacity.
func (l *Lane) reset(threadID, blockID int) {
	l.ThreadID, l.BlockID = threadID, blockID
	l.units = l.units[:0]
	l.loads = l.loads[:0]
	l.stores = l.stores[:0]
	l.fps = l.fps[:0]
}
