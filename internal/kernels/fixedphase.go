package kernels

import (
	"math"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/hostpar"
	"beamdyn/internal/quadrature"
	"beamdyn/internal/retard"
)

// fixedPhaseSpec describes the first GPU pass shared by all three kernels:
// every thread owns one grid point and walks a prescribed partition,
// accumulating Simpson estimates and emitting tolerance failures. The
// kernels differ only in how points map to blocks and where partitions
// come from, which is exactly the paper's distinction between the three
// algorithms.
type fixedPhaseSpec struct {
	name string
	// blocks[b] lists the point indices handled by block b; thread t of
	// block b evaluates point blocks[b][t].
	blocks [][]int
	// threadsPerBlock is the launch block size (>= the largest block).
	threadsPerBlock int
	// partFor returns the partition thread t of block b must walk and the
	// simulated base address of its breakpoint array; sm is the lane's SM
	// scratch, for partitions built per lane. A zero base means the
	// partition is computed in registers (no breakpoint loads) — the
	// Two-Phase kernel's uniform phase. When every thread of a block
	// shares one base the breakpoint loads coalesce into broadcasts — the
	// Predictive kernel's merged cluster partition.
	partFor func(sm *smScratch, pointIdx, blockIdx int) (part []float64, base uintptr)
}

// fixedPhase runs the pass and returns its metrics plus the work entries
// whose Simpson error exceeded the per-panel tolerance (Listing 1's list L),
// in point order and panel order within a point. Each point's accepted
// breakpoints start its partition in the store; the lanes collect kept
// breakpoints and failed panels in their SM's scratch, and the failures
// are gathered into the store's reused entry list after the launch.
func fixedPhase(dev *gpusim.Device, st *stepStore, p *retard.Problem, points []Point, spec fixedPhaseSpec) (gpusim.Metrics, []workEntry) {
	for k := range st.sms {
		st.sms[k].fails = st.sms[k].fails[:0]
	}
	st.failed = hostpar.Resize(st.failed, len(points))
	clear(st.failed)
	m := dev.Run(gpusim.Launch{
		Name:            spec.name,
		Blocks:          len(spec.blocks),
		ThreadsPerBlock: spec.threadsPerBlock,
		Kernel: func(lane *gpusim.Lane, block, thread int) {
			members := spec.blocks[block]
			if thread >= len(members) {
				return
			}
			i := members[thread]
			pt := &points[i]
			smID := block % len(st.sms)
			sm := &st.sms[smID]
			lane.Begin(kindInit)
			lane.Load(pointAddr(i, 0))
			lane.Load(pointAddr(i, 1))
			lane.Load(pointAddr(i, 2))
			lane.Flops(4)
			part, base := spec.partFor(sm, i, block)
			f := st.pool.bind(pt.X, pt.Y, lane, block)
			// Each panel is accepted against the full tolerance tau,
			// exactly as COMPUTE-RP-INTEGRAL in the paper's Listing 1
			// compares the quadrature-rule error estimate against tau.
			tol := p.Tol
			var acc, accErr float64
			kept := sm.kept[:0]
			failLo := len(sm.fails)
			// The left endpoint's integrand value carries over between
			// contiguous panels, as any composite-rule kernel arranges.
			fPrev := 0.0
			havePrev := false
			for j := 0; j+1 < len(part); j++ {
				a, b := part[j], part[j+1]
				if a >= pt.R {
					// Shared partitions can extend past this point's R(p):
					// the lane idles through the panel (trip divergence the
					// clustering is meant to minimise).
					lane.Begin(kindSkip)
					lane.Flops(2)
					havePrev = false
					continue
				}
				clamped := false
				if b > pt.R {
					b = pt.R
					clamped = true
				}
				lane.Begin(kindPanel)
				if base != 0 {
					lane.Load(base + uintptr(j)*8)
					lane.Load(base + uintptr(j+1)*8)
					lane.Flops(4)
				} else {
					lane.Flops(6) // panel bounds computed in registers
				}
				fa := fPrev
				if !havePrev {
					fa = f(a)
				}
				m := 0.5 * (a + b)
				lm, rm := 0.5*(a+m), 0.5*(m+b)
				fm, fb := f(m), f(b)
				flm, frm := f(lm), f(rm)
				h := b - a
				coarse := h / 6 * (fa + 4*fm + fb)
				fine := h / 12 * (fa + 4*flm + 2*fm + 4*frm + fb)
				errEst := math.Abs(fine-coarse) / 15
				lane.Flops(18)
				fPrev, havePrev = fb, !clamped
				if errEst <= tol {
					acc += fine + (fine-coarse)/15
					accErr += errEst
					if len(kept) == 0 {
						kept = append(kept, a)
					}
					kept = append(kept, b)
				} else {
					sm.fails = append(sm.fails, workEntry{a: a, b: b, tol: tol, pt: i})
				}
			}
			lane.Begin(kindFinish)
			pt.I = acc
			pt.Err = accErr
			// The point's partition starts empty every step.
			st.parts[i] = quadrature.AppendMergeLists(st.parts[i][:0], nil, kept, 1e-18)
			sm.kept = kept
			st.failed[i] = smRange{sm: int32(smID), lo: int32(failLo), hi: int32(len(sm.fails))}
			lane.Store(pointAddr(i, 3))
			lane.Store(pointAddr(i, 4))
			lane.Flops(2)
		},
	})
	entries := st.entries[:0]
	for _, s := range st.failed {
		entries = append(entries, st.sms[s.sm].fails[s.lo:s.hi]...)
	}
	st.entries = entries
	return m, entries
}

// rowMajorBlocks chops the point list into consecutive blocks of size tpb —
// the thread mapping of the Two-Phase kernel, which ignores access-pattern
// similarity entirely.
func rowMajorBlocks(n, tpb int) [][]int {
	blocks := make([][]int, 0, (n+tpb-1)/tpb)
	for lo := 0; lo < n; lo += tpb {
		hi := lo + tpb
		if hi > n {
			hi = n
		}
		b := make([]int, hi-lo)
		for i := range b {
			b[i] = lo + i
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// tileBlocks groups points into spatial tiles of tw x th grid cells — the
// data-locality heuristic of [10]: threads of one block work on spatially
// adjacent grid points whose integrand stencils overlap.
func tileBlocks(nx, ny, tw, th int) [][]int {
	var blocks [][]int
	for ty := 0; ty < ny; ty += th {
		for tx := 0; tx < nx; tx += tw {
			var b []int
			for iy := ty; iy < ty+th && iy < ny; iy++ {
				for ix := tx; ix < tx+tw && ix < nx; ix++ {
					b = append(b, iy*nx+ix)
				}
			}
			blocks = append(blocks, b)
		}
	}
	return blocks
}
