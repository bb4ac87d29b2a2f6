package main

import (
	"testing"

	"beamdyn/internal/fleet"
)

// TestCheckDevices pins the -devices bound without building a fleet.
func TestCheckDevices(t *testing.T) {
	for _, n := range []int{1, 2, fleet.MaxDevices} {
		if err := checkDevices(n); err != nil {
			t.Errorf("-devices %d rejected: %v", n, err)
		}
	}
	for _, n := range []int{0, -1, fleet.MaxDevices + 1, 100000000} {
		if checkDevices(n) == nil {
			t.Errorf("-devices %d accepted", n)
		}
	}
}
