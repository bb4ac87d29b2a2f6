package gpusim

import "math/bits"

// cache is a set-associative LRU cache over simulated device addresses.
// Lookups operate on whole lines; the coalescer converts lane-level
// accesses into line addresses before consulting the hierarchy.
//
// The LRU state is each set's recency order. access answers the common
// repeated-line and recently-used-way patterns without scanning the set:
// a last-line short-circuit (the same line as the previous lookup, the
// shape a warp replaying a broadcast or a tight reuse loop produces) and
// a per-set MRU-way probe (stride-1 sweeps revisiting a set hit the way
// they touched last). TestCacheAccessMatchesScan pins that an address
// stream gives the same hits and drives the tags and recency order to
// the same state as the pre-streaming lookup, which scans LRU stamps and
// is kept with the oracle replay engine in this package's tests.
type cache struct {
	sets int
	ways int
	// tags[set*ways+way] holds the line address + 1 (0 means invalid).
	tags []uintptr

	// order[set*ways : (set+1)*ways] holds the set's way indices in
	// recency order, most recent first: order[0] is the MRU way probed
	// before the associative scan, and the tail is the LRU victim, picked
	// in O(1). Every access moves its way to the front, and the initial
	// order [ways-1 ... 0] makes cold fills claim ways in increasing
	// index order, the stamp scan's first-lowest tie-break. lastTag
	// short-circuits a repeat of the immediately preceding lookup: that
	// lookup left its way at the front of its set's order, so the repeat
	// is a hit that changes nothing.
	order   []uint8
	lastTag uintptr
	// setMask replaces the set-index modulo with a mask when the set count
	// is a power of two; -1 selects the reciprocal-multiply fallback.
	// Equivalent by construction: line & (sets-1) == line % sets for
	// power-of-two sets.
	setMask int64
	// setMagic is ⌊2^64/sets⌋, used to compute line % sets without a
	// hardware divide when sets is not a power of two (the K40's per-SM L2
	// slice has 50 sets). ⌊line·setMagic/2^64⌋ underestimates line/sets by
	// at most one, so one conditional subtract after the remainder
	// reconstruction yields the exact modulo for every 64-bit line.
	setMagic uint64

	// mruHits counts lookups answered by the last-line or MRU-way fast
	// path. A replay statistic, not cache content.
	mruHits uint64
}

func newCache(totalBytes, lineBytes, ways int) *cache {
	lines := totalBytes / lineBytes
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	if ways > 256 {
		panic("gpusim: more than 256 ways")
	}
	mask := int64(-1)
	var magic uint64
	if sets&(sets-1) == 0 {
		mask = int64(sets - 1)
	} else {
		// A non-power-of-two never divides 2^64, so the truncated
		// division below is exactly ⌊2^64/sets⌋.
		magic = ^uint64(0) / uint64(sets)
	}
	c := &cache{
		sets:     sets,
		ways:     ways,
		tags:     make([]uintptr, sets*ways),
		order:    make([]uint8, sets*ways),
		setMask:  mask,
		setMagic: magic,
	}
	for set := 0; set < sets; set++ {
		ord := c.order[set*ways : (set+1)*ways]
		for p := range ord {
			ord[p] = uint8(ways - 1 - p)
		}
	}
	return c
}

// access looks up the line containing addr, fills it on a miss, and
// reports whether it hit. Fast paths first (see the type comment); then a
// plain tag scan, with the hit way moved to the front of the set's
// recency order and the LRU victim taken from its tail in O(1).
func (c *cache) access(line uintptr) bool {
	tag := line + 1
	if tag == c.lastTag {
		c.mruHits++
		return true
	}
	return c.accessCold(line, tag)
}

// setOf maps a line address to its set index: a mask for power-of-two
// set counts, otherwise an exact reciprocal-multiply modulo (see
// setMagic) — both bit-identical to line % sets, without the hardware
// divide on the lookup path.
func (c *cache) setOf(line uintptr) int {
	if c.setMask >= 0 {
		return int(line) & int(c.setMask)
	}
	n := uint64(line)
	q, _ := bits.Mul64(n, c.setMagic)
	r := n - q*uint64(c.sets)
	if r >= uint64(c.sets) {
		r -= uint64(c.sets)
	}
	return int(r)
}

// accessCold is the non-repeat remainder of access, split out so the
// last-line short-circuit above stays within the inlining budget. The
// tag probe walks the set in recency order, so a hit already knows its
// position for the move-to-front rotation and skewed reuse hits early.
func (c *cache) accessCold(line, tag uintptr) bool {
	base := c.setOf(line) * c.ways
	ord := c.order[base : base+c.ways]
	c.lastTag = tag
	if c.tags[base+int(ord[0])] == tag {
		c.mruHits++
		return true
	}
	for p := 1; p < c.ways; p++ {
		w := ord[p]
		if c.tags[base+int(w)] != tag {
			continue
		}
		// Move way w to the front of the recency order.
		copy(ord[1:p+1], ord[:p])
		ord[0] = w
		return true
	}
	// Miss: the tail of the recency order is the LRU way.
	vw := ord[c.ways-1]
	copy(ord[1:], ord[:c.ways-1])
	ord[0] = vw
	c.tags[base+int(vw)] = tag
	return false
}
