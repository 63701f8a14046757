package conformal

import (
	"math"
	"math/rand"
	"testing"
)

func TestMartingaleStaysLowUnderExchangeability(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	scores := make([]float64, 2000)
	for i := range scores {
		scores[i] = r.Float64()
	}
	maxLog, err := TestExchangeability(scores, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Ville: P(max M >= 100) <= 0.01, i.e. maxLog < log(100) ~ 4.6 w.h.p.
	if maxLog > 4.6 {
		t.Fatalf("martingale max log %v too high for exchangeable stream", maxLog)
	}
}

func TestMartingaleDetectsShift(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var scores []float64
	for i := 0; i < 500; i++ {
		scores = append(scores, r.Float64()*0.1) // small residuals
	}
	for i := 0; i < 500; i++ {
		scores = append(scores, 1+r.Float64()) // shifted workload: large residuals
	}
	m, err := NewPowerMartingale(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scores {
		m.Observe(s)
	}
	if !m.Rejects(0.01) {
		t.Fatalf("martingale failed to reject after shift; max log = %v", m.MaxLogValue())
	}
	if m.MaxLogValue() < 4.6 {
		t.Fatalf("detection statistic %v too small after shift", m.MaxLogValue())
	}
}

func TestMartingaleValidation(t *testing.T) {
	if _, err := NewPowerMartingale(0, 1); err == nil {
		t.Fatal("epsilon=0 should fail")
	}
	if _, err := NewPowerMartingale(1, 1); err == nil {
		t.Fatal("epsilon=1 should fail")
	}
	if _, err := TestExchangeability(nil, 2, 1); err == nil {
		t.Fatal("invalid epsilon should fail")
	}
}

func TestMartingalePValuesUniformish(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m, err := NewPowerMartingale(0.1, 6)
	if err != nil {
		t.Fatal(err)
	}
	var ps []float64
	for i := 0; i < 3000; i++ {
		ps = append(ps, m.Observe(r.NormFloat64()))
	}
	// Under exchangeability smoothed p-values are uniform; check the mean.
	var sum float64
	for _, p := range ps[100:] { // skip warm-up
		sum += p
	}
	mean := sum / float64(len(ps)-100)
	if mean < 0.45 || mean > 0.55 {
		t.Fatalf("p-value mean %v far from 0.5", mean)
	}
}

// refMartingale is the linear-scan power martingale the rank structure
// replaced: it keeps every score and compares the new one against each.
type refMartingale struct {
	eps                   float64
	rng                   *rand.Rand
	past                  []float64
	logM, cusum, maxCusum float64
}

func (m *refMartingale) observe(score float64) float64 {
	greater, equal := 0, 0
	for _, s := range m.past {
		switch {
		case s > score:
			greater++
		case s == score:
			equal++
		}
	}
	n := len(m.past) + 1
	theta := m.rng.Float64()
	p := (float64(greater) + theta*float64(equal+1)) / float64(n)
	if p <= 0 {
		p = 1.0 / float64(2*n)
	}
	m.past = append(m.past, score)
	inc := math.Log(m.eps) + (m.eps-1)*math.Log(p)
	m.logM += inc
	if m.cusum < 0 {
		m.cusum = 0
	}
	m.cusum += inc
	if m.cusum > m.maxCusum {
		m.maxCusum = m.cusum
	}
	return p
}

func (m *refMartingale) reset() {
	m.past = m.past[:0]
	m.logM, m.cusum, m.maxCusum = 0, 0, 0
}

// TestMartingaleMatchesLinearScan checks p-values, LogValue and
// MaxLogValue bit for bit against the linear-scan reference on streams with
// heavy ties, NaN, ±Inf and ±0, across Resets.
func TestMartingaleMatchesLinearScan(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1}
	streams := map[string]func(r *rand.Rand) float64{
		"continuous": func(r *rand.Rand) float64 { return r.NormFloat64() },
		"heavy-ties": func(r *rand.Rand) float64 { return float64(r.Intn(7)) / 2 },
		"special": func(r *rand.Rand) float64 {
			if r.Intn(3) == 0 {
				return special[r.Intn(len(special))]
			}
			return float64(r.Intn(5) - 2)
		},
		"drifting": func(r *rand.Rand) float64 { return r.Float64() * float64(1+r.Intn(50)) },
	}
	for name, draw := range streams {
		t.Run(name, func(t *testing.T) {
			m, err := NewPowerMartingale(0.1, 9)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refMartingale{eps: 0.1, rng: rand.New(rand.NewSource(9))}
			r := rand.New(rand.NewSource(10))
			for i := 0; i < 6000; i++ {
				if i == 2500 || i == 2600 || i == 4000 {
					m.Reset()
					ref.reset()
				}
				s := draw(r)
				got, want := m.Observe(s), ref.observe(s)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d score %v: p = %v, reference %v", i, s, got, want)
				}
				if math.Float64bits(m.LogValue()) != math.Float64bits(ref.logM) ||
					math.Float64bits(m.MaxLogValue()) != math.Float64bits(ref.maxCusum) {
					t.Fatalf("step %d: log %v max %v, reference %v %v",
						i, m.LogValue(), m.MaxLogValue(), ref.logM, ref.maxCusum)
				}
			}
		})
	}
}

// TestRankSetCounts checks rank against direct counting while the set
// grows through many block splits, including runs of equal scores that
// straddle block boundaries.
func TestRankSetCounts(t *testing.T) {
	var rs rankSet
	var all []float64
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		x := float64(r.Intn(300))
		if i%3 == 0 {
			x = r.Float64() * 300
		}
		rs.insert(x)
		all = append(all, x)
		if i%97 != 0 {
			continue
		}
		for _, q := range []float64{-1, 0, 150, x, 299, 300, math.Inf(1)} {
			wantLess, wantLessEq := 0, 0
			for _, s := range all {
				if s < q {
					wantLess++
				}
				if s <= q {
					wantLessEq++
				}
			}
			if less, lessEq := rs.rank(q); less != wantLess || lessEq != wantLessEq {
				t.Fatalf("size %d rank(%v) = %d, %d; want %d, %d", rs.size, q, less, lessEq, wantLess, wantLessEq)
			}
		}
	}
	if limit := 2 * len(all) / max(minRankBlock, int(math.Sqrt(float64(len(all))))); len(rs.blocks) > limit {
		t.Fatalf("%d blocks for %d scores, want at most %d", len(rs.blocks), len(all), limit)
	}
}
