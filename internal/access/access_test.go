package access

import (
	"math"
	"testing"
	"testing/quick"

	"beamdyn/internal/quadrature"
)

func TestDistance2(t *testing.T) {
	a := Pattern{1, 2}
	b := Pattern{1, 2, 3}
	if d := Distance2(a, b); d != 9 {
		t.Fatalf("zero-padded distance = %g, want 9", d)
	}
	if d := Distance2(a, a); d != 0 {
		t.Fatalf("self distance = %g", d)
	}
}

func TestDistance2Symmetric(t *testing.T) {
	check := func(a, b []float64) bool {
		pa, pb := Pattern(clean(a)), Pattern(clean(b))
		return Distance2(pa, pb) == Distance2(pb, pa)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromPartitionCounts(t *testing.T) {
	// Two panels in S_0, one in S_1, with subregion width 1.
	part := []float64{0, 0.5, 1, 2}
	pat := FromPartition(part, 1, 3)
	if pat[0] != 2 || pat[1] != 1 || pat[2] != 0 {
		t.Fatalf("FromPartition = %v", pat)
	}
}

func TestFromPartitionClampsOverflow(t *testing.T) {
	part := []float64{0, 5, 10}
	pat := FromPartition(part, 1, 2)
	if pat[0]+pat[1] != 2 {
		t.Fatalf("overflow panels lost: %v", pat)
	}
}

func TestUniformPartitionHonoursCounts(t *testing.T) {
	pat := Pattern{2, 3}
	part := pat.UniformPartition(1, 2)
	// 2 panels in [0,1], 3 in [1,2] -> 6 breakpoints.
	if len(part) != 6 {
		t.Fatalf("partition %v, want 6 breakpoints", part)
	}
	back := FromPartition(part, 1, 2)
	if back[0] != 2 || back[1] != 3 {
		t.Fatalf("round trip gave %v", back)
	}
}

func TestUniformPartitionTruncatesAtR(t *testing.T) {
	pat := Pattern{2, 2, 2}
	part := pat.UniformPartition(1, 1.5)
	last := part[len(part)-1]
	if last != 1.5 {
		t.Fatalf("partition end %g, want 1.5", last)
	}
	if !quadrature.IsSortedPartition(part) {
		t.Fatalf("partition not sorted: %v", part)
	}
}

func TestUniformPartitionMinimumOnePanel(t *testing.T) {
	pat := Pattern{0, 0}
	part := pat.UniformPartition(1, 2)
	if len(part) != 3 {
		t.Fatalf("zero counts must still yield one panel per subregion: %v", part)
	}
}

func TestUniformPartitionProperty(t *testing.T) {
	check := func(raw []float64, rRaw float64) bool {
		pat := Pattern(clean(raw))
		if len(pat) == 0 {
			pat = Pattern{1}
		}
		r := math.Mod(math.Abs(rRaw), float64(len(pat))) + 0.1
		part := pat.UniformPartition(1, r)
		if len(part) < 2 {
			return false
		}
		if part[0] != 0 || math.Abs(part[len(part)-1]-r) > 1e-12 {
			return false
		}
		return quadrature.IsSortedPartition(part)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptivePartitionRefines(t *testing.T) {
	prev := []float64{0, 0.25, 1, 2} // 2 panels in S_0, 1 in S_1
	pat := Pattern{4, 2}             // want 4 and 2
	part := pat.AdaptivePartition(prev, 1, 2)
	if !quadrature.IsSortedPartition(part) {
		t.Fatalf("not sorted: %v", part)
	}
	back := FromPartition(part, 1, 2)
	if back[0] < 4 || back[1] < 2 {
		t.Fatalf("refinement did not reach predicted counts: %v from %v", back, part)
	}
	// Previous breakpoints must be preserved (refinement, not rebuild).
	for _, v := range prev[:3] {
		found := false
		for _, w := range part {
			if math.Abs(w-v) < 1e-12 {
				found = true
			}
		}
		if !found {
			t.Fatalf("previous breakpoint %g lost in %v", v, part)
		}
	}
}

func TestAdaptivePartitionExtendsPastPrev(t *testing.T) {
	prev := []float64{0, 1} // only covers S_0
	pat := Pattern{1, 2, 3}
	part := pat.AdaptivePartition(prev, 1, 3)
	if part[len(part)-1] != 3 {
		t.Fatalf("did not extend to R: %v", part)
	}
}

func TestAdaptivePartitionEmptyPrevFallsBack(t *testing.T) {
	pat := Pattern{2, 2}
	a := pat.AdaptivePartition(nil, 1, 2)
	b := pat.UniformPartition(1, 2)
	if len(a) != len(b) {
		t.Fatalf("fallback mismatch: %v vs %v", a, b)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := Pattern{1, 2}
	c := p.Clone()
	c[0] = 9
	if p[0] == 9 {
		t.Fatal("Clone aliased")
	}
}

func TestTotalPanels(t *testing.T) {
	if tp := (Pattern{1, 2, 3}).TotalPanels(); tp != 6 {
		t.Fatalf("TotalPanels = %g", tp)
	}
}

// clean maps arbitrary quick-generated floats into small non-negative
// counts.
func clean(v []float64) []float64 {
	out := make([]float64, 0, len(v))
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		out = append(out, math.Mod(math.Abs(x), 16))
	}
	if len(out) > 12 {
		out = out[:12]
	}
	return out
}
