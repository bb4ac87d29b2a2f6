package grid

import "fmt"

// History is the ring buffer of moment grids from recent time steps. The
// rp-integral at step k reads grids D_{k-j-1}, D_{k-j-2}, D_{k-j-3} for the
// radial subregion S_j (paper Section II.A), so the retarded-potential
// solver needs the last kappa+1 grids resident at once — this is the list
// "D" of "2D data grids of moments from each time step stored linearly on
// the device memory" in Algorithm 1.
//
// History hands out stable addresses for the simulated GPU memory: each
// retained grid is assigned a contiguous address range so the GPU simulator
// can model cache behaviour of integrand reads.
type History struct {
	cap    int
	grids  []*Grid // ring storage
	latest int     // most recent step stored, -1 when empty
	count  int
	// base simulated-device addresses, parallel to grids.
	base     []uintptr
	gridSize uintptr
	// support caches per-(slot, component) charge bounding boxes;
	// invalidated when Push replaces the slot's grid.
	support [][]supportEntry
	scans   int
}

// supportEntry caches one component's SupportBox for a resident grid.
type supportEntry struct {
	valid bool
	box   Support
}

// NewHistory creates a history retaining the grids of the most recent
// capacity time steps. capacity must cover kappa+3 steps for a maximum
// retardation depth kappa.
func NewHistory(capacity int) *History {
	if capacity < 1 {
		panic("grid: history capacity must be positive")
	}
	return &History{
		cap:     capacity,
		grids:   make([]*Grid, capacity),
		base:    make([]uintptr, capacity),
		support: make([][]supportEntry, capacity),
		latest:  -1,
	}
}

// Len returns the number of grids currently stored.
func (h *History) Len() int { return h.count }

// Latest returns the most recent step stored, or -1 when empty.
func (h *History) Latest() int { return h.latest }

// Push stores g as the grid for step g.Step. Steps must be pushed in
// strictly increasing order; the oldest grid is evicted once the ring is
// full. The grid is assigned a simulated device address range.
func (h *History) Push(g *Grid) {
	if h.latest >= 0 && g.Step <= h.latest {
		panic(fmt.Sprintf("grid: history push step %d after %d", g.Step, h.latest))
	}
	slot := g.Step % h.cap
	h.grids[slot] = g
	for i := range h.support[slot] {
		h.support[slot][i] = supportEntry{}
	}
	if h.gridSize == 0 {
		// All grids in one simulation share a shape; carve the simulated
		// address space into equal, 256-byte aligned extents per ring slot.
		h.gridSize = (uintptr(len(g.Data))*8 + 255) &^ 255
	}
	h.base[slot] = uintptr(slot) * h.gridSize
	h.latest = g.Step
	if h.count < h.cap {
		h.count++
	}
}

// At returns the grid deposited at the given step, or nil when the step is
// no longer (or not yet) resident.
func (h *History) At(step int) *Grid {
	if step < 0 || h.latest < 0 || step > h.latest || step <= h.latest-h.cap {
		return nil
	}
	g := h.grids[step%h.cap]
	if g == nil || g.Step != step {
		return nil
	}
	return g
}

// Oldest returns the earliest step still resident, or -1 when empty.
func (h *History) Oldest() int {
	if h.count == 0 {
		return -1
	}
	oldest := h.latest - h.count + 1
	if oldest < 0 {
		oldest = 0
	}
	return oldest
}

// Address returns the simulated device address of component c of grid point
// (ix, iy) of the grid for the given step. The address is what the GPU
// simulator's cache model sees; it is stable while the grid stays resident.
// The boolean reports whether the step is resident.
func (h *History) Address(step, ix, iy, c int) (uintptr, bool) {
	g := h.At(step)
	if g == nil {
		return 0, false
	}
	slot := step % h.cap
	return h.base[slot] + uintptr(g.Index(ix, iy, c))*8, true
}

// Support returns the charge bounding box of component comp of the grid at
// step, scanning on first use and caching the result while the grid stays
// resident. The same deposited grid serves up to kappa radial subregions
// per rp-integral problem (and several problems when multiple kernels step
// over one history), so the O(NX*NY) scan amortises to once per Push. A
// non-resident step reports an empty support. Like Push, Support is not
// safe for concurrent use.
func (h *History) Support(step, comp int) Support {
	g := h.At(step)
	if g == nil {
		return Support{Empty: true}
	}
	slot := step % h.cap
	if len(h.support[slot]) < g.Comp {
		h.support[slot] = make([]supportEntry, g.Comp)
	}
	e := &h.support[slot][comp]
	if !e.valid {
		e.box = g.SupportBox(comp)
		e.valid = true
		h.scans++
	}
	return e.box
}

// SupportScans returns the cumulative number of O(NX*NY) support scans
// performed — instrumentation for the caching contract.
func (h *History) SupportScans() int { return h.scans }
