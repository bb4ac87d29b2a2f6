package gpusim

import "math/bits"

// cache is a set-associative LRU cache over simulated device addresses.
// Lookups operate on whole lines; the coalescer converts lane-level
// accesses into line addresses before consulting the hierarchy.
//
// The streaming replay engine calls access, which answers the common
// repeated-line and recently-used-way patterns without scanning the set:
// a last-line short-circuit (the same line as the previous lookup, the
// shape a warp replaying a broadcast or a tight reuse loop produces) and
// a per-set MRU-way probe (stride-1 sweeps revisiting a set hit the way
// they touched last). Both fast paths perform exactly the state
// transitions of the full scan — tick, stamp, hit counters — so an
// address stream drives a cache to the same state through either entry
// point; TestCacheAccessMatchesScan pins that equivalence against the
// pre-streaming scan-only lookup, kept with the oracle replay engine in
// this package's tests.
type cache struct {
	sets int
	ways int
	// tags[set*ways+way] holds the line address + 1 (0 means invalid).
	tags []uintptr
	// stamp[set*ways+way] is the LRU timestamp.
	stamp []uint64
	tick  uint64

	// order[set*ways : (set+1)*ways] holds the set's way indices in
	// recency order, most recent first: order[0] is the MRU way probed
	// before the associative scan, and the tail is the LRU victim — picked
	// in O(1) where the scan-based lookup searches stamps. The two are
	// equivalent by construction: every access moves its way to the front,
	// so the tail is the least-recently-stamped way, and the reversed
	// initial order ([ways-1 ... 0], what syncLRU derives from all-zero
	// stamps) makes cold fills claim ways in increasing index order exactly
	// like the stamp scan's first-lowest tie-break. lastTag/lastIdx
	// short-circuit a repeat of the immediately preceding lookup; every
	// access leaves its way at the front of its set's order and updates
	// them, so lastIdx's entry still holds lastTag when the check matches.
	order   []uint8
	lastTag uintptr
	lastIdx int
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

	hits, misses uint64
	// mruHits counts lookups answered by the last-line or MRU-way fast
	// path. A replay statistic, not cache content: reset leaves it alone.
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
		stamp:    make([]uint64, sets*ways),
		order:    make([]uint8, sets*ways),
		setMask:  mask,
		setMagic: magic,
	}
	c.syncLRU()
	return c
}

// syncLRU rebuilds the recency order from the stamps: ways sorted most
// recently stamped first, never-touched ways (stamp 0) last in increasing
// index order — the stamp scan's victim preference. Called at creation and
// reset; access keeps the order in step with the stamps from then on.
func (c *cache) syncLRU() {
	for set := 0; set < c.sets; set++ {
		base := set * c.ways
		ord := c.order[base : base+c.ways]
		for w := range ord {
			ord[w] = uint8(w)
		}
		for i := 1; i < len(ord); i++ {
			v := ord[i]
			sv := c.stamp[base+int(v)]
			j := i - 1
			for j >= 0 && (c.stamp[base+int(ord[j])] < sv ||
				(c.stamp[base+int(ord[j])] == sv && ord[j] < v)) {
				ord[j+1] = ord[j]
				j--
			}
			ord[j+1] = v
		}
	}
}

// access looks up the line containing addr, fills it on a miss, and
// reports whether it hit. Fast paths first (see the type comment); then a
// plain tag scan, with the hit way moved to the front of the set's
// recency order and the LRU victim taken from its tail in O(1) — no
// stamp scan. Stamps are still written on every access, so a cache driven
// through this entry point is stamp-for-stamp identical to one driven
// through the oracle's scan-only lookup (TestCacheAccessMatchesScan pins
// that).
func (c *cache) access(line uintptr) bool {
	c.tick++
	tag := line + 1
	if tag == c.lastTag {
		c.stamp[c.lastIdx] = c.tick
		c.hits++
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
	if i := base + int(ord[0]); c.tags[i] == tag {
		c.stamp[i] = c.tick
		c.hits++
		c.mruHits++
		c.lastTag, c.lastIdx = tag, i
		return true
	}
	for p := 1; p < c.ways; p++ {
		w := int(ord[p])
		i := base + w
		if c.tags[i] != tag {
			continue
		}
		c.stamp[i] = c.tick
		c.hits++
		// Move way w to the front of the recency order.
		copy(ord[1:p+1], ord[:p])
		ord[0] = uint8(w)
		c.lastTag, c.lastIdx = tag, i
		return true
	}
	// Miss: the tail of the recency order is the LRU way.
	vw := ord[c.ways-1]
	victim := base + int(vw)
	copy(ord[1:], ord[:c.ways-1])
	ord[0] = vw
	c.misses++
	c.tags[victim] = tag
	c.stamp[victim] = c.tick
	c.lastTag, c.lastIdx = tag, victim
	return false
}

// touchMRU repeats lookups of lines that each sit at slots[k] as the most
// recently used way of a set of its own, the last with tag lastTag: the
// tick, stamp, hit and MRU-hit transitions access performs on such hits,
// and the last-line state it leaves. The recency order already has every
// slot at the front of its set, so it does not change.
func (c *cache) touchMRU(slots []int, lastTag uintptr) {
	for _, i := range slots {
		c.tick++
		c.stamp[i] = c.tick
	}
	n := uint64(len(slots))
	c.hits += n
	c.mruHits += n
	c.lastTag, c.lastIdx = lastTag, slots[len(slots)-1]
}

// reset clears contents and counters (mruHits excepted; it is a replay
// statistic accumulated across launches, not cache state).
func (c *cache) reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.stamp[i] = 0
	}
	c.tick, c.hits, c.misses = 0, 0, 0
	c.lastTag, c.lastIdx = 0, 0
	c.syncLRU()
}
