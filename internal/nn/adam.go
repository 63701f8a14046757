package nn

import "math"

// Adam implements the Adam optimizer over one or more networks' parameters.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	// Clip bounds the absolute value of each raw gradient before the
	// moment updates; zero disables clipping. The q-error loss can produce
	// exponentially large gradients, which clipping tames.
	Clip float64
	// WeightDecay applies decoupled L2 regularisation (AdamW): each step
	// shrinks parameters by LR*WeightDecay*param before the Adam update.
	// Zero disables.
	WeightDecay float64

	t      int
	mW, vW [][]float64
	mB, vB [][]float64
	nets   []*Net
}

// NewAdam creates an optimizer with standard defaults (lr, 0.9, 0.999, 1e-8)
// tracking the parameters of the given networks.
func NewAdam(lr float64, nets ...*Net) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, Clip: 100, nets: nets}
	for _, n := range nets {
		for _, l := range n.Layers {
			a.mW = append(a.mW, make([]float64, len(l.W)))
			a.vW = append(a.vW, make([]float64, len(l.W)))
			a.mB = append(a.mB, make([]float64, len(l.B)))
			a.vB = append(a.vB, make([]float64, len(l.B)))
		}
	}
	return a
}

// Step applies one Adam update using the gradients currently accumulated in
// the tracked networks, scaled by 1/batchSize, then zeroes the gradients.
func (a *Adam) Step(batchSize int) {
	a.t++
	scale := 1.0 / float64(batchSize)
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	li := 0
	for _, n := range a.nets {
		for _, l := range n.Layers {
			a.update(l.W, l.gW, a.mW[li], a.vW[li], scale, bc1, bc2)
			a.update(l.B, l.gB, a.mB[li], a.vB[li], scale, bc1, bc2)
			li++
		}
		n.ZeroGrad()
	}
}

func (a *Adam) update(p, g, m, v []float64, scale, bc1, bc2 float64) {
	for i := range p {
		if a.WeightDecay > 0 {
			p[i] -= a.LR * a.WeightDecay * p[i]
		}
		gi := g[i] * scale
		if a.Clip > 0 {
			if gi > a.Clip {
				gi = a.Clip
			} else if gi < -a.Clip {
				gi = -a.Clip
			}
		}
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
		mhat := m[i] / bc1
		vhat := v[i] / bc2
		p[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Epsilon)
	}
}
