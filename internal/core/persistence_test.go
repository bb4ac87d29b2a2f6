package core

import (
	"fmt"
	"math"
	"testing"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
)

// persistencePredictor returns each grid point's pattern observed on the
// previous step: Fit copies the training rows and reads the lattice from
// the row-major training features (origin from the first row, x spacing
// from the second, row length and y spacing from the first row whose y
// differs); Predict snaps the query to the nearest lattice point by
// rounding. kernels' tests hold the same null model; a test there cannot
// import core, so this is a copy.
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

// TestPersistenceMatchesKNNForecast: the kNN features are bunch-frame grid
// coordinates and the co-moving grid keeps its geometry, so every PREDICT
// query lands on a point trained one step earlier and the 4-NN forecast
// is the point's previous pattern. Predictive-RP with the default kNN
// model and with the persistence null model must give bitwise-equal
// potentials and %#v-equal Metrics at every step of a 20-step run (12
// forecast steps at kappa 6), rigid and dynamic, under NGP and CIC, in
// both partition modes. If a change makes the two differ, this test fails
// and the change says why.
func TestPersistenceMatchesKNNForecast(t *testing.T) {
	for _, tc := range []struct {
		name     string
		nx, n    int
		rigid    bool
		scheme   grid.Scheme
		adaptive bool
	}{
		{"rigid-32", 32, 20000, true, grid.NGP, false},
		{"rigid-64", 64, 20000, true, grid.NGP, false},
		{"dynamic-32-ngp", 32, 50000, false, grid.NGP, false},
		{"dynamic-32-cic", 32, 50000, false, grid.CIC, false},
		{"dynamic-32-adaptive", 32, 50000, false, grid.NGP, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.NX, cfg.NY, cfg.Kappa = tc.nx, tc.nx, 6
			cfg.Beam.NumParticles, cfg.Rigid, cfg.Scheme = tc.n, tc.rigid, tc.scheme
			sims := [2]*Simulation{New(cfg), New(cfg)}
			for i, pred := range []kernels.Predictor{nil, &persistencePredictor{}} {
				pr := kernels.NewPredictive(gpusim.New(gpusim.KeplerK40()))
				if pred != nil {
					pr.Pred = pred
				}
				if tc.adaptive {
					pr.Mode = kernels.AdaptivePartition
				}
				sims[i].Algo = pr
			}
			knn, pers := sims[0], sims[1]
			forecasts := 0
			for i := 0; i < 20; i++ {
				step := knn.Advance()
				pers.Advance()
				if knn.Last == nil {
					continue
				}
				if knn.Last.Forecast != pers.Last.Forecast {
					t.Fatalf("step %d: forecast %v (kNN) vs %v (persistence)", step, knn.Last.Forecast, pers.Last.Forecast)
				}
				if knn.Last.Forecast {
					forecasts++
				}
				for j, v := range knn.Potential.Data {
					if math.Float64bits(v) != math.Float64bits(pers.Potential.Data[j]) {
						t.Fatalf("step %d: potential %d = %v (kNN) vs %v (persistence)", step, j, v, pers.Potential.Data[j])
					}
				}
				if a, b := fmt.Sprintf("%#v", knn.Last.Metrics), fmt.Sprintf("%#v", pers.Last.Metrics); a != b {
					t.Fatalf("step %d: Metrics differ\nkNN:         %s\npersistence: %s", step, a, b)
				}
			}
			if forecasts != 12 {
				t.Fatalf("%d forecast steps, want 12", forecasts)
			}
		})
	}
}
