package cardpi

import (
	"context"
	"sync"

	"cardpi/internal/estimator"
	"cardpi/internal/par"
	"cardpi/internal/workload"
)

// Minimum per-worker row blocks for the conformal post-passes. The trivial
// passes (apply a precomputed band, clip) cost nanoseconds per row, so only
// very large batches shard; per-row passes that featurise or walk a tree
// ensemble amortise the fan-out much earlier.
const (
	trivialMinBlock = 512
	featMinBlock    = 32
	ratioMinBlock   = 64
)

// grow returns buf resized to n elements, reallocating only when its
// capacity is short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// batchScratch holds the reusable buffers of one Intervals call: the
// model's estimates (preds, plus aux for a second model or the difficulty
// predictions), one flat row-major feature block, and the per-row views
// handed to the conformal and difficulty kernels. Buffers grow to the
// largest batch seen; a scratch is owned by one call at a time
// (scratchPool).
type batchScratch struct {
	preds, aux []float64
	flat       []float64
	rows       [][]float64
}

// scratchPool recycles batch scratch sets across Intervals calls and
// wrappers, so a call's allocations stay O(1) in the batch size and a
// batch of one allocates nothing of its own.
var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// estimateInto runs the model's batched estimation path over qs into *buf
// (bit-identical to per-query EstimateSelectivity) and returns the
// estimates.
func estimateInto(buf *[]float64, m Estimator, qs []workload.Query) []float64 {
	*buf = grow(*buf, len(qs))
	estimator.EstimateBatch(m, qs, *buf)
	return *buf
}

// featurize fills s.rows[i] with the feature vector of qs[i] and returns
// the row views. Every row lands in s.flat — the pooled flat block, no
// per-query allocation — and rows are filled by contiguous row-block
// workers, bit-identical to calling the featurizer sequentially.
func (s *batchScratch) featurize(af AppendFeatureFunc, qs []workload.Query) [][]float64 {
	n := len(qs)
	s.rows = grow(s.rows, n)
	if n == 0 {
		return s.rows
	}
	// Probe row 0 for the feature width, then give every row its own
	// full-capacity sub-block of the flat buffer: a width-stable featurizer
	// appends in place (zero allocations), while one that ever exceeds its
	// block falls back to append's reallocation — still correct, row by row.
	dim := len(af(qs[0], s.flat[:0]))
	if dim == 0 {
		clear(s.rows)
		return s.rows
	}
	s.flat = grow(s.flat, n*dim)
	par.RunBlocks(n, featMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			s.rows[i] = af(qs[i], s.flat[i*dim:i*dim:(i+1)*dim])
		}
		return nil
	})
	return s.rows
}

// Intervals implements PI: the model's estimates are produced in one
// batched pass and the constant-width conformal band is applied per
// estimate, sharded in row blocks.
func (s *SplitCP) Intervals(ctx context.Context, qs []workload.Query, dst []Interval) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	preds := estimateInto(&sc.preds, s.model, qs)
	par.RunBlocks(len(qs), trivialMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			dst[i] = clip(s.cp.Interval(preds[i]))
		}
		return nil
	})
	return nil
}

// Intervals implements PI: model estimates, featurisation, and the
// gradient-boosted difficulty predictions all run batched and row-block
// sharded, then the scaled band U(X) = max(g(X), 0) + beta is applied per
// query.
func (l *LocallyWeighted) Intervals(ctx context.Context, qs []workload.Query, dst []Interval) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	preds := estimateInto(&sc.preds, l.model, qs)
	X := sc.featurize(l.feats, qs)
	u := grow(sc.aux, len(qs))
	sc.aux = u
	l.g.PredictBatch(X, u)
	par.RunBlocks(len(qs), trivialMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			d := u[i]
			if d < 0 {
				d = 0
			}
			dst[i] = clip(l.lw.Interval(preds[i], d+l.beta))
		}
		return nil
	})
	return nil
}

// Intervals implements PI: both quantile models run their batched inference
// paths once over the whole query set and the conformal margin is applied
// in sharded row blocks.
func (c *CQR) Intervals(ctx context.Context, qs []workload.Query, dst []Interval) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	loP := estimateInto(&sc.preds, c.lo, qs)
	hiP := estimateInto(&sc.aux, c.hi, qs)
	par.RunBlocks(len(qs), trivialMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			dst[i] = clip(c.cqr.Interval(loP[i], hiP[i]))
		}
		return nil
	})
	return nil
}

// Intervals implements PI: model estimates and featurisation run batched,
// and the per-query local thresholds come from the calibration-time
// neighbour index (k-d tree or bounded-heap scan, itself row-block sharded)
// instead of a full calibration-set sort per query.
func (l *Localized) Intervals(ctx context.Context, qs []workload.Query, dst []Interval) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	feats := sc.featurize(l.feats, qs)
	preds := estimateInto(&sc.preds, l.model, qs)
	if err := l.lcp.Intervals(feats, preds, dst); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = clip(dst[i])
	}
	return nil
}

// Intervals implements PI: model estimates run batched; each query's
// weighted threshold is an O(log n) search over the presorted calibration
// scores, computed in row blocks whose workers reuse one feature buffer
// each. Infinite thresholds (calibration uninformative for the query under
// the shift) clip to the trivial [0, 1] interval.
func (w *Weighted) Intervals(ctx context.Context, qs []workload.Query, dst []Interval) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	preds := estimateInto(&sc.preds, w.model, qs)
	return par.RunBlocks(len(qs), ratioMinBlock, func(lo, hi int) error {
		var buf []float64
		for i := lo; i < hi; i++ {
			buf = w.feats(qs[i], buf[:0])
			iv, err := w.wcp.Interval(preds[i], w.likelihoodRatioFrom(buf))
			if err != nil {
				return err
			}
			dst[i] = clip(iv)
		}
		return nil
	})
}

// Intervals implements PI: model estimates run batched and each query's
// group threshold is a map lookup, sharded in row blocks.
func (m *Mondrian) Intervals(ctx context.Context, qs []workload.Query, dst []Interval) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	preds := estimateInto(&sc.preds, m.model, qs)
	par.RunBlocks(len(qs), ratioMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			dst[i] = clip(m.m.Interval(m.group(qs[i]), preds[i]))
		}
		return nil
	})
	return nil
}

// Intervals implements PI with the Algorithm-1 construction: the full
// model's estimates run batched and the calibrated K-fold residual band is
// applied per estimate in sharded row blocks.
func (j *JackknifeCV) Intervals(ctx context.Context, qs []workload.Query, dst []Interval) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	preds := estimateInto(&sc.preds, j.full, qs)
	par.RunBlocks(len(qs), trivialMinBlock, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			dst[i] = clip(j.jk.IntervalSimple(preds[i]))
		}
		return nil
	})
	return nil
}
