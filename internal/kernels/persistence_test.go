package kernels

import (
	"math"
	"runtime"
	"testing"
)

// persistencePredictor is the null model of the learned forecast: each
// grid point's pattern observed on the previous step. Fit copies the
// training rows and reads the lattice from the row-major training
// features: the origin from the first row, the x spacing from the second,
// and the row length and y spacing from the first row whose y differs.
// Predict snaps the query to the nearest lattice point by rounding. On the
// co-moving grid every query lands on the point it was trained at.
type persistencePredictor struct {
	x0, y0, dx, dy float64
	nx, ny         int
	rows           [][]float64
}

func (p *persistencePredictor) Trained() bool { return len(p.rows) > 0 }

func (p *persistencePredictor) OutDim() int {
	if len(p.rows) == 0 {
		return 0
	}
	return len(p.rows[0])
}

func (p *persistencePredictor) Fit(x, y [][]float64) {
	p.rows = p.rows[:0]
	for _, r := range y {
		p.rows = append(p.rows, append([]float64(nil), r...))
	}
	if len(x) == 0 {
		return
	}
	p.x0, p.y0, p.dx, p.dy = x[0][0], x[0][1], 1, 1
	p.nx = len(x)
	for i := 1; i < len(x); i++ {
		if x[i][1] != p.y0 {
			p.nx = i
			break
		}
	}
	p.ny = len(x) / p.nx
	if p.nx > 1 {
		p.dx = x[1][0] - p.x0
	}
	if p.ny > 1 {
		p.dy = x[p.nx][1] - p.y0
	}
}

func (p *persistencePredictor) Predict(q, out []float64) {
	ix := min(max(int(math.Round((q[0]-p.x0)/p.dx)), 0), p.nx-1)
	iy := min(max(int(math.Round((q[1]-p.y0)/p.dy)), 0), p.ny-1)
	copy(out, p.rows[iy*p.nx+ix])
}

// TestPersistenceReproducesPredictiveIdentity: on the co-moving lattice
// the 4-NN forecast is persistence. Predictive-RP with the persistence
// predictor reproduces the pinned Predictive-RP digests (potentials,
// Metrics, per-point state) on all three steps, in both partition modes.
// If a change makes the two differ, this test fails and the change says
// why.
func TestPersistenceReproducesPredictiveIdentity(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, name := range []string{"predictive", "predictive-adaptive"} {
		t.Run(name, func(t *testing.T) {
			pr := identityKernels()[name]().(*Predictive)
			pr.Pred = &persistencePredictor{}
			checkIdentity(t, pr, identityWant[name])
		})
	}
}
