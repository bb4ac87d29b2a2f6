package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"beamdyn/internal/gpusim"
)

// Committed identity figures of one fleet-scheduled Two-Phase-RP step on
// one device (4 bands, seed 7) at fixture(8, 16): SHA-256 of the output
// grid's float bits and of the aggregated Metrics printed with %#v. One
// device keeps the band execution order, and so the warm-cache state each
// band sees, deterministic; with several devices, work stealing keys off
// wall-clock pacing.
const (
	fleetGridWant    = "5db5be2fac81672da124e5683d87a7163a9cb003deeeb5735f05c596eb1ccda9"
	fleetMetricsWant = "bd1904a6b8e27078e5ca761c9842a0044fe0e25e7b4271e121d7a28eec936ca7"
)

// TestFleetIdentityHashes pins a fleet step's outputs at the top of the
// stack: bitwise-identical potentials and ==-equal aggregated Metrics. A
// change that claims exact outputs must leave the constants untouched.
// Recorded on amd64, where Go never fuses a multiply and an add.
func TestFleetIdentityHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	p, target := fixture(8, 16)
	f := newTwoPhaseFleet(NewFixed([]*gpusim.Device{gpusim.New(gpusim.KeplerK40())}), 4, 7)
	res := f.Step(p, target, 0)

	g := sha256.New()
	var b [8]byte
	for _, v := range target.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		g.Write(b[:])
	}
	m := sha256.Sum256([]byte(fmt.Sprintf("%#v", res.Metrics)))
	if got := hex.EncodeToString(g.Sum(nil)); got != fleetGridWant {
		t.Errorf("grid digest %q, want %q", got, fleetGridWant)
	}
	if got := hex.EncodeToString(m[:]); got != fleetMetricsWant {
		t.Errorf("Metrics digest %q, want %q", got, fleetMetricsWant)
	}
}
