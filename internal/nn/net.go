// Package nn is a small from-scratch neural network library sufficient to
// train the paper's learned cardinality estimators on CPU: fully connected
// networks with ReLU activations, reverse-mode gradients, the Adam
// optimizer, and the losses the paper's models need (MSE for LW-NN, mean
// q-error for MSCN, pinball/quantile loss for the CQR variants, and
// cross-entropy for the Naru-style autoregressive model).
//
// The library is deliberately minimal: vectors are []float64, forward passes
// return explicit caches, and gradients accumulate in the layers until
// ZeroGrad, which lets composite models (for example MSCN's shared per-set
// networks with average pooling) run several forward/backward passes per
// example before a single optimizer step.
//
// Two execution styles coexist. The cache-allocating Net.Forward/Backward
// pair supports composite models that hold many in-flight caches at once.
// The Scratch-based pair (ForwardScratch/BackwardScratch) reuses
// preallocated activation and gradient buffers for the one-forward-one-
// backward-per-example shape of Fit, so the steady-state training hot path
// performs zero heap allocations.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is one fully connected layer: y = W x + b.
type Dense struct {
	In, Out int
	// W is row-major: W[o*In+i] multiplies input i into output o.
	W, B []float64
	// gW and gB accumulate gradients between ZeroGrad calls.
	gW, gB []float64
}

// NewDense allocates a layer with He-style initialisation, which suits the
// ReLU hidden activations used throughout.
func NewDense(r *rand.Rand, in, out int) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:  make([]float64, in*out),
		B:  make([]float64, out),
		gW: make([]float64, in*out),
		gB: make([]float64, out),
	}
	scale := math.Sqrt(2.0 / float64(in))
	for i := range d.W {
		d.W[i] = r.NormFloat64() * scale
	}
	return d
}

// Forward computes Wx+b into out, which must have length d.Out. It performs
// no heap allocations.
func (d *Dense) Forward(x, out []float64) {
	for o := 0; o < d.Out; o++ {
		s := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			s += row[i] * xi
		}
		out[o] = s
	}
}

// Backward accumulates parameter gradients into the layer's own
// accumulators given the layer input x and the gradient of the loss with
// respect to the layer output, and writes the gradient with respect to x
// into gradIn (length d.In). It performs no heap allocations.
func (d *Dense) Backward(x, gradOut, gradIn []float64) {
	gW, gB := d.gW, d.gB
	for i := range gradIn {
		gradIn[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		g := gradOut[o]
		if g == 0 {
			continue
		}
		gB[o] += g
		row := d.W[o*d.In : (o+1)*d.In]
		grow := gW[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			grow[i] += g * xi
			gradIn[i] += g * row[i]
		}
	}
}

// Net is a multilayer perceptron with ReLU on hidden layers and a linear
// output layer.
type Net struct {
	Layers []*Dense
}

// NewNet builds an MLP with the given layer sizes (len(sizes) >= 2).
func NewNet(r *rand.Rand, sizes ...int) *Net {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: NewNet needs at least 2 sizes, got %d", len(sizes)))
	}
	n := &Net{}
	for i := 0; i+1 < len(sizes); i++ {
		n.Layers = append(n.Layers, NewDense(r, sizes[i], sizes[i+1]))
	}
	return n
}

// Cache holds the intermediate activations of one forward pass.
type Cache struct {
	// inputs[l] is the input to layer l (post-activation of layer l-1).
	inputs [][]float64
	// preact[l] is the pre-activation output of layer l.
	preact [][]float64
}

// Forward runs the net on x and returns the output plus a cache for Backward.
// Buffers are freshly allocated, so any number of caches can be held at once
// (composite models run several forward passes before one backward sweep);
// for the allocation-free single-cache path use ForwardScratch.
func (n *Net) Forward(x []float64) ([]float64, *Cache) {
	c := &Cache{}
	cur := x
	for li, l := range n.Layers {
		c.inputs = append(c.inputs, cur)
		z := make([]float64, l.Out)
		l.Forward(cur, z)
		c.preact = append(c.preact, z)
		if li < len(n.Layers)-1 {
			a := make([]float64, len(z))
			for i, v := range z {
				if v > 0 {
					a[i] = v
				}
			}
			cur = a
		} else {
			cur = z
		}
	}
	return cur, c
}

// Predict runs the net and discards the cache.
func (n *Net) Predict(x []float64) []float64 {
	out, _ := n.Forward(x)
	return out
}

// Predict1 returns the first output of the net, for scalar regressors.
func (n *Net) Predict1(x []float64) float64 {
	return n.Predict(x)[0]
}

// Backward accumulates gradients for a forward pass, given the gradient of
// the loss with respect to the network output, and returns the gradient with
// respect to the network input.
func (n *Net) Backward(c *Cache, gradOut []float64) []float64 {
	grad := gradOut
	for li := len(n.Layers) - 1; li >= 0; li-- {
		if li < len(n.Layers)-1 {
			// Undo the ReLU between layer li and li+1: grad currently refers
			// to the post-activation values of layer li.
			z := c.preact[li]
			masked := make([]float64, len(grad))
			for i, g := range grad {
				if z[i] > 0 {
					masked[i] = g
				}
			}
			grad = masked
		}
		gradIn := make([]float64, n.Layers[li].In)
		n.Layers[li].Backward(c.inputs[li], grad, gradIn)
		grad = gradIn
	}
	return grad
}

// Scratch holds the reusable activation and gradient buffers for one
// in-flight forward/backward pair on one network. A Scratch must not be
// shared between concurrent goroutines.
type Scratch struct {
	// pre[l] is the pre-activation output buffer of layer l; act[l] its
	// post-ReLU activation (nil for the linear output layer).
	pre, act [][]float64
	// grad[l] is the buffer for the gradient with respect to layer l's input.
	grad  [][]float64
	cache Cache
}

// NewScratch allocates scratch buffers matching the net's architecture.
func (n *Net) NewScratch() *Scratch {
	s := &Scratch{
		pre:  make([][]float64, len(n.Layers)),
		act:  make([][]float64, len(n.Layers)),
		grad: make([][]float64, len(n.Layers)),
	}
	for li, l := range n.Layers {
		s.pre[li] = make([]float64, l.Out)
		if li < len(n.Layers)-1 {
			s.act[li] = make([]float64, l.Out)
		}
		s.grad[li] = make([]float64, l.In)
	}
	s.cache.inputs = make([][]float64, len(n.Layers))
	s.cache.preact = make([][]float64, len(n.Layers))
	return s
}

// ForwardScratch runs the net on x reusing the scratch buffers; the
// returned output aliases the scratch and stays valid until the next
// ForwardScratch call. Zero heap allocations in steady state. Values are
// identical to Forward.
func (n *Net) ForwardScratch(x []float64, s *Scratch) []float64 {
	cur := x
	for li, l := range n.Layers {
		s.cache.inputs[li] = cur
		z := s.pre[li]
		l.Forward(cur, z)
		s.cache.preact[li] = z
		if li < len(n.Layers)-1 {
			a := s.act[li]
			for i, v := range z {
				if v > 0 {
					a[i] = v
				} else {
					a[i] = 0
				}
			}
			cur = a
		} else {
			cur = z
		}
	}
	return cur
}

// BackwardScratch accumulates gradients of the pass recorded in s into the
// layers' own accumulators. gradOut is the gradient of the loss with respect
// to the network output. Zero heap allocations; values are identical to
// Backward.
func (n *Net) BackwardScratch(s *Scratch, gradOut []float64) {
	grad := gradOut
	for li := len(n.Layers) - 1; li >= 0; li-- {
		if li < len(n.Layers)-1 {
			// grad points at s.grad[li+1], owned by this scratch: the ReLU
			// mask can be applied in place.
			z := s.cache.preact[li]
			for i := range grad {
				if z[i] <= 0 {
					grad[i] = 0
				}
			}
		}
		n.Layers[li].Backward(s.cache.inputs[li], grad, s.grad[li])
		grad = s.grad[li]
	}
}

// ZeroGrad clears all accumulated gradients.
func (n *Net) ZeroGrad() {
	for _, l := range n.Layers {
		for i := range l.gW {
			l.gW[i] = 0
		}
		for i := range l.gB {
			l.gB[i] = 0
		}
	}
}

// NumParams returns the number of trainable parameters.
func (n *Net) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W) + len(l.B)
	}
	return total
}

// Clone returns a deep copy of the network (weights only; gradients zeroed).
func (n *Net) Clone() *Net {
	out := &Net{}
	for _, l := range n.Layers {
		nl := &Dense{
			In: l.In, Out: l.Out,
			W:  append([]float64(nil), l.W...),
			B:  append([]float64(nil), l.B...),
			gW: make([]float64, len(l.W)),
			gB: make([]float64, len(l.B)),
		}
		out.Layers = append(out.Layers, nl)
	}
	return out
}
