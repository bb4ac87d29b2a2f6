package main

import (
	"math"
	"testing"
)

func TestRelDev(t *testing.T) {
	ref := []float64{3, -4, 0, 0}
	maxRel, l2 := relDev([]float64{3, -4, 0.4, 0}, ref)
	if maxRel != 0.1 || math.Abs(l2-0.08) > 1e-15 {
		t.Fatalf("relDev = %g, %g; want 0.1, 0.08", maxRel, l2)
	}
	if maxRel, l2 := relDev(ref, ref); maxRel != 0 || l2 != 0 {
		t.Fatalf("relDev of the reference itself = %g, %g", maxRel, l2)
	}
	for _, bad := range [][]float64{{0, 0, 0, 0}, {math.NaN(), 1, 0, 0}} {
		if maxRel, l2 := relDev(ref, bad); !math.IsInf(maxRel, 1) || !math.IsInf(l2, 1) {
			t.Fatalf("relDev against %v = %g, %g; want +Inf", bad, maxRel, l2)
		}
	}
}
