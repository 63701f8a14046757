package nn

import (
	"fmt"
	"math/rand"
)

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	return c
}

// Fit trains a scalar-output network on (X, y) with minibatch Adam and the
// given loss, returning the mean training loss of the final epoch. It runs
// on the calling goroutine with one reusable scratch, accumulating each
// example's gradients into the net's own buffers in batch order: zero
// steady-state heap allocations per example, and weights bit-identical to
// the original per-example trainer given the same seed.
func Fit(net *Net, X [][]float64, y []float64, loss Loss, cfg TrainConfig) (float64, error) {
	cfg = cfg.withDefaults()
	if len(X) == 0 {
		return 0, fmt.Errorf("nn: Fit with empty dataset")
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("nn: len(X)=%d != len(y)=%d", len(X), len(y))
	}
	out := net.Layers[len(net.Layers)-1].Out
	if out != 1 {
		return 0, fmt.Errorf("nn: Fit requires a scalar output, net has %d", out)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	opt := NewAdam(cfg.LR, net)
	s := net.NewScratch()
	gradOut := make([]float64, 1)
	var last float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		idx := r.Perm(len(X))
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			for _, i := range idx[start:end] {
				pred := net.ForwardScratch(X[i], s)
				epochLoss += loss.Value(pred[0], y[i])
				gradOut[0] = loss.Grad(pred[0], y[i])
				net.BackwardScratch(s, gradOut)
			}
			opt.Step(end - start)
		}
		last = epochLoss / float64(len(X))
	}
	return last, nil
}

// MeanLoss evaluates the mean loss of the network over a dataset without
// training.
func MeanLoss(net *Net, X [][]float64, y []float64, loss Loss) float64 {
	if len(X) == 0 {
		return 0
	}
	s := net.NewScratch()
	var total float64
	for i := range X {
		total += loss.Value(net.ForwardScratch(X[i], s)[0], y[i])
	}
	return total / float64(len(X))
}
