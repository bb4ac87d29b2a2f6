package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
)

// Committed identity figures of one fleet-scheduled Two-Phase-RP step on
// one device (4 bands) at fixture(8, 16): SHA-256 of the output grid's
// float bits and of the aggregated Metrics printed with %#v.
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
	f := newTwoPhaseFleet(1, 4)
	res := f.Step(p, target, 0)

	g := sha256.New()
	hashFloats(g, target.Data)
	m := sha256.Sum256([]byte(fmt.Sprintf("%#v", res.Metrics)))
	if got := hex.EncodeToString(g.Sum(nil)); got != fleetGridWant {
		t.Errorf("grid digest %q, want %q", got, fleetGridWant)
	}
	if got := hex.EncodeToString(m[:]); got != fleetMetricsWant {
		t.Errorf("Metrics digest %q, want %q", got, fleetMetricsWant)
	}
}

// identityDigests are one step's identity figures: SHA-256 digests of the
// output grid's float bits, of the step's Metrics printed with %#v, of
// every point's integral, error, partition and pattern, and of the
// per-phase Metrics (Fixed and Adaptive) printed with %#v.
type identityDigests struct {
	grid, metrics, points, phases string
}

// multiGPUWant pins three consecutive steps of a fleet over two K40s at
// one band per device, the static split of the multi-GPU predecessor
// [10], at kernels' identity fixture(8, 24). The constants were recorded
// by the static two-device split this fleet replaced, so they hold it to
// that split bit for bit: Two-Phase-RP ("multigpu") and Predictive-RP
// ("multigpu-predictive"), whose per-device models train on the bands
// their device ran.
var multiGPUWant = map[string][3]identityDigests{
	"multigpu": {
		{"46261b7009af0da95da7de4e85075b5e7d795e27e520ed890ba798c12c5e0089", "e8713e7f8623383c1b8a234bae4e7a930b9575eea4a8e3315d3b6b83258cc2b7", "46708905ab20a6df8c83543254f9c96bd36deb6590dd8fd7c8ac699e4cd48d42", "561183ccb2fec2f58c2865e57797a0dc39915231232c044ebc666402c9900f87"},
		{"46261b7009af0da95da7de4e85075b5e7d795e27e520ed890ba798c12c5e0089", "8a32dda7ed11e3dfa51bf19c833b45258da2290edd002a989828ffb994628b85", "46708905ab20a6df8c83543254f9c96bd36deb6590dd8fd7c8ac699e4cd48d42", "1c104571b050f08c2215393c4e9585a3dd1ddc50470d1014a1b5f517a6ce72f9"},
		{"46261b7009af0da95da7de4e85075b5e7d795e27e520ed890ba798c12c5e0089", "8a32dda7ed11e3dfa51bf19c833b45258da2290edd002a989828ffb994628b85", "46708905ab20a6df8c83543254f9c96bd36deb6590dd8fd7c8ac699e4cd48d42", "1c104571b050f08c2215393c4e9585a3dd1ddc50470d1014a1b5f517a6ce72f9"},
	},
	"multigpu-predictive": {
		{"f790279a417dc7a04103ce7413c5bb4612d90f33b8f20730adbea125f97a35f6", "6d3e51a48daf8f89b3413c4ef50799bfbef315bb2702e0ef4b0452046f21532b", "ecef765fe07d5fb89ef4d81bc35480045dfc960233171851f86692e83e8ffc08", "c0affa0667eb1240db8044be9f2e81ba573b91b1b61080034705edde474474d6"},
		{"342b8b1dbf0fdec2f2ef0897672347915a4e396c9a580eb3e50cc8987879ea63", "446a86ab1ab4ed7eb0b7ee454b5de70632a89e1aab86ff438d4d669c03c8fd31", "727b13a30f6eaeaf641c21c815b7837974d9ebe1b8c5fe0689f30226adad9485", "d8fdf69819e2d849cf3b8f588efc7b338fa8d0d487e9c818136b08e48359c01e"},
		{"342b8b1dbf0fdec2f2ef0897672347915a4e396c9a580eb3e50cc8987879ea63", "8a164a2f856cf90c44928b087eef388627abae9bea18354033a1e073d6b63e1c", "727b13a30f6eaeaf641c21c815b7837974d9ebe1b8c5fe0689f30226adad9485", "8571c9e6e87fab304921e4ee9bd42c166e7d97102f7a7268ffaabe5121466deb"},
	},
}

func hashFloats(h hash.Hash, vs []float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// stepDigests computes one step's identity figures.
func stepDigests(data []float64, res *kernels.StepResult) identityDigests {
	g := sha256.New()
	hashFloats(g, data)
	m := sha256.Sum256([]byte(fmt.Sprintf("%#v", res.Metrics)))
	ph := sha256.Sum256([]byte(fmt.Sprintf("%#v\n%#v", res.Fixed, res.Adaptive)))
	pts := sha256.New()
	for _, pt := range res.Points {
		hashFloats(pts, []float64{pt.X, pt.Y, pt.R, pt.I, pt.Err, float64(len(pt.Partition))})
		hashFloats(pts, pt.Partition)
		hashFloats(pts, pt.Pattern)
	}
	return identityDigests{
		grid:    hex.EncodeToString(g.Sum(nil)),
		metrics: hex.EncodeToString(m[:]),
		points:  hex.EncodeToString(pts.Sum(nil)),
		phases:  hex.EncodeToString(ph[:]),
	}
}

// TestFleetMultiGPUIdentityHashes runs each two-device row for three
// steps through fleet.New over two K40s with Bands unset and
// compares every step's digests with the committed constants.
func TestFleetMultiGPUIdentityHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	kernelsOf := map[string]func(dev *gpusim.Device) kernels.Algorithm{
		"multigpu":            newTwoPhase,
		"multigpu-predictive": newPredictive,
	}
	p, target := fixture(8, 24)
	for name, want := range multiGPUWant {
		t.Run(name, func(t *testing.T) {
			fl := newKernelFleet(2, 0, kernelsOf[name])
			for step, w := range want {
				g := target.Clone()
				res := fl.Step(p, g, 0)
				if got := stepDigests(g.Data, res); got != w {
					t.Errorf("step %d digests\n got  {%q, %q, %q, %q},\n want {%q, %q, %q, %q},",
						step, got.grid, got.metrics, got.points, got.phases,
						w.grid, w.metrics, w.points, w.phases)
				}
			}
		})
	}
}
