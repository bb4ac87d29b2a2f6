package kernels

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
)

// identityDigests are one step's identity figures: SHA-256 digests of the
// output grid's float bits and of the step's Metrics printed with %#v (the
// two figures advbench prints), one of every point's integral, error,
// partition and pattern — the state Predictive-RP trains on and the next
// step's forecasts read — and one of the per-phase Metrics (Fixed and
// Adaptive) printed with %#v.
type identityDigests struct {
	grid, metrics, points, phases string
}

// identityWant pins three consecutive steps of every kernel at the
// fixture below. A change that claims exact outputs must leave these
// constants untouched; a change that means to alter outputs re-records
// them and says so.
var identityWant = map[string][3]identityDigests{
	"twophase": {
		{"4ed98bd8d2fabd3f43ea163e8b77ccf6c99a4cf194ca717b50625f6c1c2c2ccf", "856a3457e1d3b95d714fbe3fe58c16b8c3bccccb70e455900e5749f353c4a42d", "53c59ab9eed4321e556c1d6e69ee9aa3b2978049c854bae901980c6184da7160", "3ec1b9ed7eb456607f3cdcefee1962b3e816d81c37f7a52cf22399cc361cf07b"},
		{"4ed98bd8d2fabd3f43ea163e8b77ccf6c99a4cf194ca717b50625f6c1c2c2ccf", "a111275fc06134cfd06664b4b3087aac69088687d32e71d27af61f03ac43a3b2", "53c59ab9eed4321e556c1d6e69ee9aa3b2978049c854bae901980c6184da7160", "2890065c4158e252d413090a6a41b1b68f8da7cedfac344676e886f893d85725"},
		{"4ed98bd8d2fabd3f43ea163e8b77ccf6c99a4cf194ca717b50625f6c1c2c2ccf", "a111275fc06134cfd06664b4b3087aac69088687d32e71d27af61f03ac43a3b2", "53c59ab9eed4321e556c1d6e69ee9aa3b2978049c854bae901980c6184da7160", "2890065c4158e252d413090a6a41b1b68f8da7cedfac344676e886f893d85725"},
	},
	"heuristic": {
		{"c28ea6370b1ed1b4a31373ff5d149a572a9fb8d667d95cdf6e4d21a671387f10", "2a99b04d57f396e8bc73902ec40bfad8b116c31ab08fdf7f98c8c9c8c8557474", "d2ac798bb75ca05968a3bab786bd8c094ff53d7658bd5d115933c433010bcc5d", "aee7cac0984d4e9fbae6014576c831d31e57809c822704b69d4386e4ad963ba6"},
		{"eb82f7d94aba63d6930ddfa74e06f50ed13e4cf996fbc66487711bdeb63d1893", "4273d12a0a05c45cdf04d993368ff46bd1d4ba4b972f7be5b94e489fd815ddc5", "b6da072d3555b14c125427106445ddf1c6be025752d6f00e5aeedb738436b720", "37ecf1bd326c92445ba50509add1260777d2cde382df87f73e35e47bfff7b0f7"},
		{"311cbc18f008f09a71d6c75680f8f4dc0d233de85a52f1cfb8a201e81b5b143a", "5b19b4c3ee9d9c0754f8d2960628ed570d285a0da2822913872cedff212167e0", "48f9b109063f28915712b7761badf4fcd92765a221e03391273ad4b3065832bd", "3a44f7c888f37d4dd88c38303d7ad33bcb0ed01bd21be5be346ba0295c60e26b"},
	},
	"predictive": {
		{"c28ea6370b1ed1b4a31373ff5d149a572a9fb8d667d95cdf6e4d21a671387f10", "e7fcf1dd5803db0140ac27e6280a80b75f61380f9d096d13665866e87533b29d", "d2ac798bb75ca05968a3bab786bd8c094ff53d7658bd5d115933c433010bcc5d", "475e0c825ca2357153a61f15764e81f861502113cae981d5e0f84f0fed1e2693"},
		{"a5c0ed342f36b42ad0810e9b5a740d6f51d770d71f90436f7c3684882be050ac", "8781560fb0fa207b5dd1414d6e7f430a2133751f227b4ca6c7cba9afb3ed972b", "7f6dcca3177c0b2510008ab90d0747d50241d783a95fc9b036193fba44e7347b", "908d8791b576810d8f823bba027ca5c36cb44e4a6a3a11f92bd2d5c79cb852c8"},
		{"a5c0ed342f36b42ad0810e9b5a740d6f51d770d71f90436f7c3684882be050ac", "af8bc9c91848d4fce38eb884efa4cde5454ee4c8cff819ec583755e6ece2246b", "7f6dcca3177c0b2510008ab90d0747d50241d783a95fc9b036193fba44e7347b", "dcd42c4b2fe8ba91e5ee62284fa4b7f317e5ed83818b9a28116cdc2c357796a3"},
	},
	"predictive-adaptive": {
		{"c28ea6370b1ed1b4a31373ff5d149a572a9fb8d667d95cdf6e4d21a671387f10", "e7fcf1dd5803db0140ac27e6280a80b75f61380f9d096d13665866e87533b29d", "d2ac798bb75ca05968a3bab786bd8c094ff53d7658bd5d115933c433010bcc5d", "475e0c825ca2357153a61f15764e81f861502113cae981d5e0f84f0fed1e2693"},
		{"7890d4acdc09f23c2b5a77c3c1ad1a9247d7c74205707ae966dc939fb7394fed", "68434ad3d954f9142fc7adc2a8530343480bcdfaca3953604ea3393af0746e99", "76b8ed6ad4c6ef347ae12c7db0aea4391be483dc3be9537c4f1be0a2e01128bb", "ad01b6debd6724e2009daed5db817a661a5110500cdd72bb51611f662ad4ea17"},
		{"7890d4acdc09f23c2b5a77c3c1ad1a9247d7c74205707ae966dc939fb7394fed", "9ff8009a5db6c18643a0cf494bed2f4a54fee018f955dd2e82aeefcf67527513", "76b8ed6ad4c6ef347ae12c7db0aea4391be483dc3be9537c4f1be0a2e01128bb", "cc58ac68eed0db6fba70b76b141ef89d8494c1417e3da6b90a8ea76b15d57ddd"},
	},
}

// identityKernels builds each pinned kernel on a fresh K40. The
// two-device rows live in fleet's identity test.
func identityKernels() map[string]func() Algorithm {
	return map[string]func() Algorithm{
		"twophase":   func() Algorithm { return NewTwoPhase(gpusim.New(gpusim.KeplerK40())) },
		"heuristic":  func() Algorithm { return NewHeuristic(gpusim.New(gpusim.KeplerK40())) },
		"predictive": func() Algorithm { return NewPredictive(gpusim.New(gpusim.KeplerK40())) },
		"predictive-adaptive": func() Algorithm {
			pr := NewPredictive(gpusim.New(gpusim.KeplerK40()))
			pr.Mode = AdaptivePartition
			return pr
		},
	}
}

func hashFloats(h hash.Hash, vs []float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// stepDigests computes one step's identity figures.
func stepDigests(data []float64, res *StepResult) identityDigests {
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

// TestKernelIdentityHashes runs every kernel for three steps on a small
// fixed fixture and compares each step's digests with the committed
// constants: bitwise-identical potentials, ==-equal Metrics (loads,
// flops, cache traffic, modelled time) in total and per phase, and
// identical per-point state.
// The digests were recorded on amd64, where Go never fuses a multiply and
// an add; architectures with fused multiply-add produce other bits.
func TestKernelIdentityHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for name, mk := range identityKernels() {
		t.Run(name, func(t *testing.T) { checkIdentity(t, mk(), identityWant[name]) })
	}
}

// TestBareKernelsMatchIdentity: Two-Phase-RP and Heuristic-RP have no
// settings besides the device and the host worker count, so a bare struct
// literal is the constructor's kernel and must reproduce its pinned
// digests.
func TestBareKernelsMatchIdentity(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	t.Run("twophase", func(t *testing.T) {
		checkIdentity(t, &TwoPhase{Dev: gpusim.New(gpusim.KeplerK40())}, identityWant["twophase"])
	})
	t.Run("heuristic", func(t *testing.T) {
		checkIdentity(t, &Heuristic{Dev: gpusim.New(gpusim.KeplerK40())}, identityWant["heuristic"])
	})
}

// checkIdentity runs algo for three steps on the identity fixture and
// compares each step's digests with want.
func checkIdentity(t *testing.T, algo Algorithm, want [3]identityDigests) {
	t.Helper()
	p, target := fixture(8, 24)
	for step, want := range want {
		g := target.Clone()
		res := algo.Step(p, g, 0)
		if got := stepDigests(g.Data, res); got != want {
			t.Errorf("step %d digests\n got  {%q, %q, %q, %q},\n want {%q, %q, %q, %q},",
				step, got.grid, got.metrics, got.points, got.phases,
				want.grid, want.metrics, want.points, want.phases)
		}
	}
}
