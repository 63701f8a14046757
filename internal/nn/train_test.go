package nn

import (
	"math/rand"
	"testing"
)

// trainData builds a deterministic regression dataset.
func trainData(n, dim int, seed int64) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, dim)
		var s float64
		for d := range x {
			x[d] = r.NormFloat64()
			s += x[d] * float64(d+1)
		}
		X[i] = x
		y[i] = s + 0.1*r.NormFloat64()
	}
	return X, y
}

// TestScratchMatchesAllocatingPath checks that the scratch-based forward and
// backward produce exactly the values of the cache-allocating path.
func TestScratchMatchesAllocatingPath(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	net := NewNet(r, 5, 16, 8, 1)
	s := net.NewScratch()
	loss := MSELoss{}
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 5)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		y := r.NormFloat64()

		want, cache := net.Forward(x)
		got := net.ForwardScratch(x, s)
		if got[0] != want[0] {
			t.Fatalf("trial %d: scratch forward %v != %v", trial, got[0], want[0])
		}

		net.ZeroGrad()
		net.Backward(cache, []float64{loss.Grad(want[0], y)})
		var ref [][]float64
		for _, l := range net.Layers {
			ref = append(ref, append(append([]float64(nil), l.gW...), l.gB...))
		}
		net.ZeroGrad()
		net.BackwardScratch(s, []float64{loss.Grad(got[0], y)})
		for li, l := range net.Layers {
			cur := append(append([]float64(nil), l.gW...), l.gB...)
			for pi := range cur {
				if cur[pi] != ref[li][pi] {
					t.Fatalf("trial %d layer %d grad %d: scratch %v != %v",
						trial, li, pi, cur[pi], ref[li][pi])
				}
			}
		}
		net.ZeroGrad()
	}
}

// TestSteadyStateZeroAllocations asserts the hot-path contract: Dense
// Forward/Backward and the scratch-based Net pair allocate nothing once
// buffers exist.
func TestSteadyStateZeroAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := NewDense(r, 32, 32)
	x := make([]float64, 32)
	out := make([]float64, 32)
	gradIn := make([]float64, 32)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	if n := testing.AllocsPerRun(100, func() { d.Forward(x, out) }); n != 0 {
		t.Errorf("Dense.Forward allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.Backward(x, out, gradIn) }); n != 0 {
		t.Errorf("Dense.Backward allocates %v per run, want 0", n)
	}

	net := NewNet(r, 32, 32, 1)
	s := net.NewScratch()
	gradOut := []float64{0.5}
	if n := testing.AllocsPerRun(100, func() { net.ForwardScratch(x, s) }); n != 0 {
		t.Errorf("Net.ForwardScratch allocates %v per run, want 0", n)
	}
	net.ForwardScratch(x, s)
	if n := testing.AllocsPerRun(100, func() { net.BackwardScratch(s, gradOut) }); n != 0 {
		t.Errorf("Net.BackwardScratch allocates %v per run, want 0", n)
	}
	net.ZeroGrad()
}
