// Prediction-model comparison (the paper's Section III.B.1 study, plus
// its future-work regression tree): run the Predictive-RP kernel with
// kNN, linear regression and a regression tree, and compare forecast
// quality through the safety-net fallback volume.
package main

import (
	"fmt"

	"beamdyn"
	"beamdyn/internal/kernels"
)

func main() {
	models := []struct {
		name string
		pred kernels.Predictor
	}{
		{"kNN k=4 (paper)", kernels.NewKNNPredictor(4)},
		{"linear regression", kernels.NewLinregPredictor()},
		{"regression tree", kernels.NewTreePredictor()},
	}

	fmt.Printf("%-22s %12s %10s %10s\n", "model", "gpu time(s)", "fallback", "WEE%")
	for _, m := range models {
		cfg := beamdyn.DefaultConfig()
		cfg.Beam.NumParticles = 50000
		cfg.NX, cfg.NY = 64, 64

		sim := beamdyn.New(cfg)
		pr := beamdyn.NewPredictive(beamdyn.NewDevice(beamdyn.KeplerK40()))
		pr.Pred = m.pred
		sim.Algo = pr
		sim.Warmup()
		sim.Advance() // bootstrap + train
		sim.Advance() // measured step
		fmt.Printf("%-22s %12.4g %10d %10.1f\n",
			m.name, sim.Last.Metrics.Time, sim.Last.FallbackEntries,
			100*sim.Last.Metrics.WarpExecutionEfficiency())
	}
}
