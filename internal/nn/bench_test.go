package nn

import (
	"math/rand"
	"testing"
)

// BenchmarkFit trains the paper-scale MLP (hidden=32) on 2k examples for a
// fixed epoch budget. The "seed" sub-benchmark replicates the original
// trainer exactly — per-example cache-allocating Forward/Backward — and is
// the speedup baseline; "sequential" runs Fit, the allocation-free
// trainer. Results are recorded in BENCH_nn.json by `make bench-json`.
func BenchmarkFit(b *testing.B) {
	const (
		examples = 2000
		dim      = 16
		epochs   = 4
	)
	X, y := trainData(examples, dim, 42)
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net := NewNet(rand.New(rand.NewSource(7)), dim, 32, 1)
			fitSeedReplica(net, X, y, MSELoss{}, TrainConfig{
				Epochs: epochs, BatchSize: 32, LR: 1e-3, Seed: 11,
			})
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net := NewNet(rand.New(rand.NewSource(7)), dim, 32, 1)
			if _, err := Fit(net, X, y, MSELoss{}, TrainConfig{
				Epochs: epochs, BatchSize: 32, LR: 1e-3, Seed: 11,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fitSeedReplica is the original pre-optimisation training loop, preserved
// verbatim as the benchmark baseline: every example pays for a fresh forward
// cache, fresh backward buffers, and a fresh output-gradient slice.
func fitSeedReplica(net *Net, X [][]float64, y []float64, loss Loss, cfg TrainConfig) float64 {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	opt := NewAdam(cfg.LR, net)
	var last float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		idx := r.Perm(len(X))
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			for _, i := range idx[start:end] {
				pred, cache := net.Forward(X[i])
				epochLoss += loss.Value(pred[0], y[i])
				net.Backward(cache, []float64{loss.Grad(pred[0], y[i])})
			}
			opt.Step(end - start)
		}
		last = epochLoss / float64(len(X))
	}
	return last
}

// BenchmarkDenseForward measures the steady-state per-call cost of one dense
// layer forward pass; allocs/op must be 0.
func BenchmarkDenseForward(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	d := NewDense(r, 32, 32)
	x := make([]float64, 32)
	out := make([]float64, 32)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Forward(x, out)
	}
}

// BenchmarkDenseBackward measures the steady-state per-call cost of one
// dense layer backward pass; allocs/op must be 0.
func BenchmarkDenseBackward(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	d := NewDense(r, 32, 32)
	x := make([]float64, 32)
	gradOut := make([]float64, 32)
	gradIn := make([]float64, 32)
	for i := range x {
		x[i] = r.NormFloat64()
		gradOut[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Backward(x, gradOut, gradIn)
	}
}
