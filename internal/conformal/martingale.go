package conformal

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// PowerMartingale is a plug-in martingale for testing exchangeability online
// (Fedorova et al., "Plug-in martingales for testing exchangeability
// on-line", referenced in Section IV of the paper). Conformal p-values of a
// stream of scores are combined with the power betting function
// f(p) = ε·p^(ε−1); under exchangeability the martingale stays small with
// high probability (by Ville's inequality P(sup M_t >= c) <= 1/c), while a
// distribution shift drives it up exponentially.
// Under exchangeability the raw power martingale decays over time, so a
// change that occurs late in a long stream cannot lift it back above 1. The
// detector therefore also tracks a CUSUM-style restarted statistic
// (log-value floored at zero before each update) — the standard scheme for
// martingale-based changepoint detection. Rejects thresholds the restarted
// statistic; the Ville bound is exact for the raw martingale and a close
// approximation for the restarted one.
type PowerMartingale struct {
	// Epsilon is the betting exponent in (0, 1); smaller values bet more
	// aggressively on small p-values (0.1 is the usual default).
	Epsilon float64
	rng     *rand.Rand

	// ranks holds every non-NaN score since the last reset; n counts every
	// score, NaN included.
	ranks    rankSet
	n        int
	logM     float64
	cusum    float64
	maxCusum float64
}

// NewPowerMartingale creates a martingale with betting exponent epsilon in
// (0,1); 0.1 is a reasonable default. The seed drives the tie-breaking
// randomisation of the p-values.
func NewPowerMartingale(epsilon float64, seed int64) (*PowerMartingale, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return nil, fmt.Errorf("conformal: epsilon must be in (0,1), got %v", epsilon)
	}
	return &PowerMartingale{Epsilon: epsilon, rng: rand.New(rand.NewSource(seed))}, nil
}

// Observe processes the next score in the stream and returns the smoothed
// conformal p-value it produced.
func (m *PowerMartingale) Observe(score float64) float64 {
	// greater and equal count the past scores s with s > score and
	// s == score; a NaN on either side compares false, so a NaN score (or a
	// past NaN) is counted in n only.
	greater, equal := 0, 0
	if !math.IsNaN(score) {
		less, lessEq := m.ranks.rank(score)
		greater, equal = m.ranks.size-lessEq, lessEq-less
	}
	n := m.n + 1
	// Smoothed p-value: ties (including the new point itself) are broken
	// uniformly, which makes the p-values exactly uniform under
	// exchangeability.
	theta := m.rng.Float64()
	p := (float64(greater) + theta*float64(equal+1)) / float64(n)
	if p <= 0 {
		p = 1.0 / float64(2*n)
	}
	if !math.IsNaN(score) {
		m.ranks.insert(score)
	}
	m.n = n
	inc := math.Log(m.Epsilon) + (m.Epsilon-1)*math.Log(p)
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

// Reset clears the observed score history and every detection statistic,
// restarting the martingale from scratch — the acknowledgement step after a
// drift alarm has been acted on (recalibration or retraining). The
// tie-breaking RNG keeps its stream, so a Reset does not replay the same
// randomisation.
func (m *PowerMartingale) Reset() {
	m.ranks.reset()
	m.n = 0
	m.logM = 0
	m.cusum = 0
	m.maxCusum = 0
}

// LogValue returns the current log value of the raw power martingale.
func (m *PowerMartingale) LogValue() float64 { return m.logM }

// MaxLogValue returns the running maximum of the restarted (CUSUM) log
// martingale, the detection statistic.
func (m *PowerMartingale) MaxLogValue() float64 { return m.maxCusum }

// Rejects reports whether exchangeability is rejected at the given
// significance: by Ville's inequality, sup M_t >= 1/significance has
// probability at most `significance` under exchangeability.
func (m *PowerMartingale) Rejects(significance float64) bool {
	return m.maxCusum >= math.Log(1/significance)
}

// TestExchangeability runs the martingale over a score stream and reports
// the maximum log martingale value. Streams from exchangeable sources stay
// near (or below) zero; shifted streams grow linearly.
func TestExchangeability(scores []float64, epsilon float64, seed int64) (float64, error) {
	m, err := NewPowerMartingale(epsilon, seed)
	if err != nil {
		return 0, err
	}
	for _, s := range scores {
		m.Observe(s)
	}
	return m.MaxLogValue(), nil
}

// rankSet is the sorted multiset of scores the martingale ranks each new
// score against, kept as a run of sorted blocks whose concatenation is
// sorted. Ranking binary-searches the block maxima and then one block, in
// O(log n); inserting shifts one block and the block prefix counts, in
// O(√n), since a block splits once it holds more than twice
// max(minRankBlock, √size) scores. Comparisons are the float64 operators,
// so -0 and +0 rank as equal. NaN is never stored.
type rankSet struct {
	blocks [][]float64 // each sorted ascending
	maxes  []float64   // maxes[i] is the last score of blocks[i]
	before []int       // before[i] is the total length of blocks[:i]
	size   int
}

// minRankBlock keeps blocks from splitting into slivers while the set is
// small.
const minRankBlock = 32

// rank returns how many stored scores are < x and how many are <= x.
func (r *rankSet) rank(x float64) (less, lessEq int) {
	if i := sort.SearchFloat64s(r.maxes, x); i < len(r.blocks) {
		less = r.before[i] + sort.SearchFloat64s(r.blocks[i], x)
	} else {
		less = r.size
	}
	if i := countAtMost(r.maxes, x); i < len(r.blocks) {
		lessEq = r.before[i] + countAtMost(r.blocks[i], x)
	} else {
		lessEq = r.size
	}
	return less, lessEq
}

// insert adds x (not NaN) to the set.
func (r *rankSet) insert(x float64) {
	if len(r.blocks) == 0 {
		r.blocks = append(r.blocks, []float64{x})
		r.maxes = append(r.maxes, x)
		r.before = append(r.before, 0)
		r.size = 1
		return
	}
	// The first block whose maximum exceeds x takes it; past the last
	// maximum it goes at the end of the last block.
	i := min(countAtMost(r.maxes, x), len(r.blocks)-1)
	b := r.blocks[i]
	j := countAtMost(b, x)
	b = append(b, 0)
	copy(b[j+1:], b[j:])
	b[j] = x
	r.blocks[i] = b
	r.maxes[i] = b[len(b)-1]
	for k := i + 1; k < len(r.before); k++ {
		r.before[k]++
	}
	r.size++
	if limit := 2 * max(minRankBlock, int(math.Sqrt(float64(r.size)))); len(b) > limit {
		r.split(i)
	}
}

// split halves blocks[i] into two adjacent blocks.
func (r *rankSet) split(i int) {
	b := r.blocks[i]
	h := len(b) / 2
	tail := append([]float64(nil), b[h:]...)
	r.blocks[i] = b[:h]
	r.blocks = append(r.blocks, nil)
	copy(r.blocks[i+2:], r.blocks[i+1:])
	r.blocks[i+1] = tail
	r.maxes = append(r.maxes, 0)
	copy(r.maxes[i+2:], r.maxes[i+1:])
	r.maxes[i] = b[h-1]
	r.maxes[i+1] = tail[len(tail)-1]
	r.before = append(r.before, 0)
	copy(r.before[i+2:], r.before[i+1:])
	r.before[i+1] = r.before[i] + h
}

func (r *rankSet) reset() {
	r.blocks = r.blocks[:0]
	r.maxes = r.maxes[:0]
	r.before = r.before[:0]
	r.size = 0
}

// countAtMost returns how many elements of the ascending slice a are <= x.
func countAtMost(a []float64, x float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
