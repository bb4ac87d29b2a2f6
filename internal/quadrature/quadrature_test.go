package quadrature

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewtonCotesPolynomialExactness(t *testing.T) {
	// A closed Newton-Cotes rule with n points integrates polynomials up
	// to its degree of exactness without error.
	cases := []struct {
		order  NewtonCotesOrder
		degree int
	}{
		{Trapezoid, 1},
		{Simpson, 3}, // odd-point rules gain a degree
		{Simpson38, 3},
		{Boole, 5},
	}
	for _, c := range cases {
		for d := 0; d <= c.degree; d++ {
			d := d
			f := func(x float64) float64 { return math.Pow(x, float64(d)) }
			got := NewtonCotes(f, 0, 2, c.order)
			want := math.Pow(2, float64(d+1)) / float64(d+1)
			if math.Abs(got-want) > 1e-12*math.Max(1, want) {
				t.Errorf("%v on x^%d: got %g want %g", c.order, d, got, want)
			}
		}
	}
}

func TestNewtonCotesPoints(t *testing.T) {
	want := map[NewtonCotesOrder]int{Trapezoid: 2, Simpson: 3, Simpson38: 4, Boole: 5}
	for o, n := range want {
		if o.Points() != n {
			t.Errorf("%v.Points() = %d, want %d", o, o.Points(), n)
		}
	}
}

func TestSimpsonRuleErrorEstimateBounds(t *testing.T) {
	// For smooth integrands the Richardson estimate bounds the true error
	// of the extrapolated value to within a small factor.
	f := func(x float64) float64 { return math.Exp(x) }
	est := SimpsonRule(f, 0, 1)
	want := math.E - 1
	trueErr := math.Abs(est.I - want)
	if trueErr > 10*est.Err+1e-14 {
		t.Fatalf("true error %g not controlled by estimate %g", trueErr, est.Err)
	}
	if est.Evals != 5 {
		t.Fatalf("SimpsonRule evals = %d, want 5", est.Evals)
	}
}

func TestAdaptiveSimpsonAccuracy(t *testing.T) {
	cases := []struct {
		name string
		f    Func
		a, b float64
		want float64
	}{
		{"exp", math.Exp, 0, 1, math.E - 1},
		{"peaked", func(x float64) float64 { return 1 / (1e-3 + x*x) }, 0, 1,
			math.Atan(1/math.Sqrt(1e-3)) / math.Sqrt(1e-3)},
		{"oscillatory", func(x float64) float64 { return math.Sin(20 * x) }, 0, math.Pi,
			(1 - math.Cos(20*math.Pi)) / 20},
	}
	for _, c := range cases {
		res := AdaptiveSimpson(c.f, c.a, c.b, 1e-9, 40)
		if err := math.Abs(res.I - c.want); err > 1e-6 {
			t.Errorf("%s: error %g beyond tolerance (got %g want %g)", c.name, err, res.I, c.want)
		}
		if !IsSortedPartition(res.Partition) {
			t.Errorf("%s: partition not strictly increasing", c.name)
		}
		if res.Partition[0] != c.a || res.Partition[len(res.Partition)-1] != c.b {
			t.Errorf("%s: partition does not span [%g, %g]", c.name, c.a, c.b)
		}
	}
}

func TestAdaptiveSimpsonConcentratesPanels(t *testing.T) {
	// The partition must be finer where the integrand varies rapidly.
	f := func(x float64) float64 { return math.Exp(-x * x * 400) } // peak at 0
	res := AdaptiveSimpson(f, -1, 1, 1e-10, 40)
	near, far := 0, 0
	for i := 0; i+1 < len(res.Partition); i++ {
		mid := 0.5 * (res.Partition[i] + res.Partition[i+1])
		if math.Abs(mid) < 0.2 {
			near++
		} else {
			far++
		}
	}
	if near <= far {
		t.Fatalf("adaptive partition not concentrated: %d near-peak vs %d far panels", near, far)
	}
}

func TestAdaptiveSimpsonRespectsMaxDepth(t *testing.T) {
	evals := 0
	f := func(x float64) float64 { evals++; return math.Sqrt(math.Abs(x)) }
	AdaptiveSimpson(f, 0, 1, 1e-300, 5) // impossible tolerance
	// Depth 5 limits the tree to 2^5 leaves of 5 evals plus internals.
	if evals > 5*(1<<7) {
		t.Fatalf("maxDepth not honoured: %d evaluations", evals)
	}
}

func TestAdaptiveSimpsonZeroWidth(t *testing.T) {
	res := AdaptiveSimpson(math.Exp, 2, 2, 1e-9, 10)
	if res.I != 0 || res.Err != 0 {
		t.Fatalf("zero-width integral: got I=%g err=%g", res.I, res.Err)
	}
}

func TestMergeListsProperties(t *testing.T) {
	check := func(araw, braw []float64) bool {
		a := sortedClean(araw)
		b := sortedClean(braw)
		m := AppendMergeLists(nil, a, b, 0)
		if !IsSortedPartition(m) && len(m) > 1 {
			return false
		}
		// Every input value must appear.
		for _, v := range a {
			if !contains(m, v) {
				return false
			}
		}
		for _, v := range b {
			if !contains(m, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeListsDedup(t *testing.T) {
	m := AppendMergeLists(nil, []float64{0, 1, 2}, []float64{1, 2, 3}, 0)
	want := []float64{0, 1, 2, 3}
	if len(m) != len(want) {
		t.Fatalf("got %v want %v", m, want)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("got %v want %v", m, want)
		}
	}
}

func TestMergeListsEpsilonCollapse(t *testing.T) {
	m := AppendMergeLists(nil, []float64{0, 1}, []float64{1 + 1e-18, 2}, 1e-12)
	if len(m) != 3 {
		t.Fatalf("near-duplicates not collapsed: %v", m)
	}
}

// AppendMergeLists keeps dst's prefix, applies the duplicate rule among the
// merged values only, and reuses dst's capacity.
func TestAppendMergeListsKeepsPrefix(t *testing.T) {
	buf := make([]float64, 0, 8)
	dst := append(buf, 5, 2)
	m := AppendMergeLists(dst, []float64{2, 3}, []float64{1, 3 + 1e-18}, 1e-12)
	want := []float64{5, 2, 1, 2, 3}
	if len(m) != len(want) {
		t.Fatalf("got %v want %v", m, want)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("got %v want %v", m, want)
		}
	}
	if &m[0] != &buf[:1][0] {
		t.Fatal("merge did not reuse dst's backing array")
	}
	if got := AppendMergeLists(buf[:0], nil, nil, 0); len(got) != 0 {
		t.Fatalf("empty merge appended %v", got)
	}
}

func TestUniformPartition(t *testing.T) {
	p := UniformPartition(1, 3, 4)
	if len(p) != 5 || p[0] != 1 || p[4] != 3 {
		t.Fatalf("bad uniform partition %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if math.Abs((p[i+1]-p[i])-0.5) > 1e-12 {
			t.Fatalf("uneven spacing in %v", p)
		}
	}
}

func sortedClean(v []float64) []float64 {
	out := make([]float64, 0, len(v))
	for _, x := range v {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	// strict dedup
	uniq := out[:0]
	for i, x := range out {
		if i == 0 || x > uniq[len(uniq)-1] {
			uniq = append(uniq, x)
		}
	}
	return uniq
}

func contains(m []float64, v float64) bool {
	for _, x := range m {
		if x == v {
			return true
		}
	}
	return false
}
