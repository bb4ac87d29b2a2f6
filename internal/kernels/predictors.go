package kernels

import (
	"fmt"

	"beamdyn/internal/ml/tree"
)

// TreePredictor adapts a CART regression tree to the Predictor interface —
// the paper's future-work direction of studying further learning
// algorithms. Trees capture the sharp visibility fronts of the pattern
// field that linear regression smooths over, at O(depth) prediction cost.
type TreePredictor struct{ t *tree.Regressor }

// NewTreePredictor returns a regression-tree predictor.
func NewTreePredictor() *TreePredictor {
	return &TreePredictor{t: tree.New(tree.Config{MaxDepth: 14, MinLeaf: 2})}
}

// Trained implements Predictor.
func (p *TreePredictor) Trained() bool { return p.t.Trained() }

// Fit implements Predictor.
func (p *TreePredictor) Fit(x, y [][]float64) { p.t.Fit(x, y) }

// Predict implements Predictor.
func (p *TreePredictor) Predict(x, out []float64) { p.t.Predict(x, out) }

// OutDim implements Predictor.
func (p *TreePredictor) OutDim() int { return p.t.OutDim() }

// TrendPredictor wraps a base predictor with linear trend extrapolation
// over the last two training sets: the forecast for step k+h is
// g_k(x) + h*(g_k(x) - g_{k-1}(x)). With Horizon = 1 this is the paper's
// one-step-ahead forecasting; larger horizons realise the multiple-step-
// ahead forecasting (j >> k) that Section III.B mentions as an option,
// which lets the host retrain less often.
type TrendPredictor struct {
	// Horizon is the forecast distance h in steps (>= 1).
	Horizon int

	cur, prev Predictor
	make      func() Predictor
}

// NewTrendPredictor wraps predictors produced by mk (one per retained
// training set) with trend extrapolation over horizon steps.
func NewTrendPredictor(mk func() Predictor, horizon int) *TrendPredictor {
	if horizon < 1 {
		panic(fmt.Sprintf("kernels: trend horizon %d", horizon))
	}
	return &TrendPredictor{Horizon: horizon, make: mk}
}

// Trained implements Predictor.
func (p *TrendPredictor) Trained() bool { return p.cur != nil && p.cur.Trained() }

// Fit implements Predictor: the previous model is retained so the trend
// between the last two steps can be extrapolated.
func (p *TrendPredictor) Fit(x, y [][]float64) {
	if len(x) == 0 {
		p.cur, p.prev = nil, nil
		return
	}
	// Rotate: the old current model becomes the previous one; build a
	// fresh model for the new training set.
	p.prev = p.cur
	p.cur = p.make()
	p.cur.Fit(x, y)
}

// Predict implements Predictor with trend extrapolation; before two
// training sets exist it degrades to the base model's forecast.
func (p *TrendPredictor) Predict(x, out []float64) {
	p.cur.Predict(x, out)
	if p.prev == nil || !p.prev.Trained() || p.prev.OutDim() != p.cur.OutDim() {
		return
	}
	prevOut := make([]float64, len(out))
	p.prev.Predict(x, prevOut)
	h := float64(p.Horizon)
	for i := range out {
		out[i] += h * (out[i] - prevOut[i])
		if out[i] < 0 {
			out[i] = 0
		}
	}
}

// OutDim implements Predictor.
func (p *TrendPredictor) OutDim() int {
	if p.cur == nil {
		return 0
	}
	return p.cur.OutDim()
}
