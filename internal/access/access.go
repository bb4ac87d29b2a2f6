// Package access implements the data-access-pattern representation from
// Section III.A of the paper: the per-grid-point vector
// [n_0, n_1, ..., n_Ns] where n_j is the number of quadrature panels the
// rp-integral evaluation generates inside the radial subregion
// S_j = [j*c*dt, (j+1)*c*dt]. The pattern determines both the memory
// references to the historical moment grids (alpha*(n_i + n_{i-1} + n_{i-2})
// references to D_{k-i}) and, through the partition transforms of Section
// III.C.2, the control flow of the predicted-partition evaluation.
package access

import (
	"math"

	"beamdyn/internal/quadrature"
)

// Pattern is a data-access pattern: element j holds the panel count for
// subregion S_j. Counts are float64 because predictions (kNN averages,
// regression outputs) are fractional; they are rounded up only when a
// partition is built, since under-partitioning would push work to the
// adaptive safety net while slight over-partitioning merely costs a few
// extra panel evaluations.
type Pattern []float64

// Clone returns an independent copy of p.
func (p Pattern) Clone() Pattern {
	out := make(Pattern, len(p))
	copy(out, p)
	return out
}

// TotalPanels returns the total panel count across all subregions, the
// partition size from Section III.C.2.
func (p Pattern) TotalPanels() float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s
}

// Distance2 returns the squared Euclidean distance between two patterns,
// zero-padding the shorter one. It is the dissimilarity used by both the
// kNN regressor's output space and RP-CLUSTERING's objective.
func Distance2(a, b Pattern) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	var d float64
	for i := 0; i < n; i++ {
		var av, bv float64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		diff := av - bv
		d += diff * diff
	}
	return d
}

// FromPartition derives the access pattern of a partition: panel j of the
// partition is attributed to the subregion containing its midpoint, with
// subregions of width subWidth starting at zero. numSub fixes the pattern
// length; panels beyond it are attributed to the last subregion, which can
// only happen when R(p) exceeds kappa*c*dt and mirrors the truncation of
// the retardation depth.
func FromPartition(partition []float64, subWidth float64, numSub int) Pattern {
	if numSub < 1 {
		numSub = 1
	}
	pat := make(Pattern, numSub)
	for i := 0; i+1 < len(partition); i++ {
		mid := 0.5 * (partition[i] + partition[i+1])
		j := int(mid / subWidth)
		if j < 0 {
			j = 0
		}
		if j >= numSub {
			j = numSub - 1
		}
		pat[j]++
	}
	return pat
}

// UniformPartition implements the uniform-partitioning forecast transform
// (Section III.C.2 method 1): subregion S_i is divided into round(n_i)
// equal panels, and subregions are concatenated into a single global
// partition on [0, R]. Subregions beyond R are dropped and the final
// breakpoint is clamped to R. Predicted counts below 1 still produce one
// panel, because every subregion intersected by [0, R] must be integrated.
func (p Pattern) UniformPartition(subWidth, r float64) []float64 {
	return p.AppendUniformPartition(nil, subWidth, r)
}

// AppendUniformPartition is UniformPartition appending into dst (typically
// a reused scratch slice passed as dst[:0]) and returning the extended
// slice. The kernels' per-step partition builders use it with per-worker
// scratch so steady-state steps allocate nothing.
func (p Pattern) AppendUniformPartition(dst []float64, subWidth, r float64) []float64 {
	if r <= 0 {
		return append(dst, 0, 0)
	}
	dst = append(dst, 0)
	for j := 0; ; j++ {
		a := float64(j) * subWidth
		if a >= r {
			break
		}
		b := a + subWidth
		if b > r {
			b = r
		}
		n := 1
		if j < len(p) {
			if c := int(math.Round(p[j])); c > n {
				n = c
			}
		}
		h := (b - a) / float64(n)
		for i := 1; i <= n; i++ {
			dst = append(dst, a+float64(i)*h)
		}
		dst[len(dst)-1] = b
		if b == r {
			break
		}
	}
	return dst
}

// AdaptivePartition implements the adaptive-partitioning forecast transform
// (Section III.C.2 method 2): the partition from an earlier time step,
// prev, is refined so that each subregion S_i reaches approximately the
// predicted count n_i. With d_i panels of prev inside S_i, each is split
// into ceil(n_i/d_i) finer panels. Panels of prev beyond r are dropped and
// subregions not covered by prev are filled uniformly.
func (p Pattern) AdaptivePartition(prev []float64, subWidth, r float64) []float64 {
	if len(prev) < 2 {
		return p.UniformPartition(subWidth, r)
	}
	prevPat := FromPartition(prev, subWidth, len(p))
	out := []float64{0}
	last := 0.0
	for i := 0; i+1 < len(prev); i++ {
		a, b := prev[i], prev[i+1]
		if a >= r {
			break
		}
		if b > r {
			b = r
		}
		j := int(0.5 * (a + b) / subWidth)
		if j < 0 {
			j = 0
		}
		k := 1
		if j < len(p) && j < len(prevPat) && prevPat[j] > 0 {
			if c := int(math.Round(p[j] / prevPat[j])); c > k {
				k = c
			}
		}
		h := (b - a) / float64(k)
		for s := 1; s <= k; s++ {
			out = append(out, a+float64(s)*h)
		}
		out[len(out)-1] = b
		last = b
	}
	if last < r {
		// prev did not reach r (R(p) grew since the earlier step): extend
		// with the uniform transform over the remaining range.
		startSub := int(last / subWidth)
		for j := startSub; ; j++ {
			a := math.Max(float64(j)*subWidth, last)
			if a >= r {
				break
			}
			b := math.Min(float64(j+1)*subWidth, r)
			n := 1
			if j < len(p) {
				if c := int(math.Round(p[j])); c > n {
					n = c
				}
			}
			h := (b - a) / float64(n)
			for s := 1; s <= n; s++ {
				out = append(out, a+float64(s)*h)
			}
			out[len(out)-1] = b
			if b >= r {
				break
			}
		}
	}
	return dedup(out)
}

// dedup removes zero-width panels that floating-point clamping can create.
func dedup(p []float64) []float64 {
	return quadrature.AppendMergeLists(make([]float64, 0, len(p)), p, nil, 1e-15)
}
