// Package lwnn implements the LW-NN estimator of Dutt et al. ("Selectivity
// estimation for range predicates using lightweight models"): a small neural
// network over heuristic features — per-column range fractions plus the
// log-estimates of cheap traditional estimators (attribute-value-independence
// histograms and a uniform row sample) — trained with MSE on
// log-selectivity. A pinball-loss variant provides the quantile regressors
// needed by conformalized quantile regression.
package lwnn

import (
	"fmt"
	"math/rand"
	"sync"

	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/histogram"
	"cardpi/internal/nn"
	"cardpi/internal/par"
	"cardpi/internal/sampling"
	"cardpi/internal/workload"
)

// Config controls training.
type Config struct {
	// Hidden lists the hidden layer sizes (default [64, 32]).
	Hidden []int
	// Epochs, BatchSize and LR are passed to the trainer.
	Epochs    int
	BatchSize int
	LR        float64
	// SampleSize is the row-sample size for the sampling feature.
	SampleSize int
	// Seed makes initialisation and training deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 32}
	}
	if c.Epochs <= 0 {
		c.Epochs = 40
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 1000
	}
	if c.LR <= 0 {
		c.LR = 2e-3
	}
	return c
}

// Features produces LW-NN's heuristic feature vectors for queries over one
// table. It is exported so the locally weighted conformal difficulty model
// can reuse the same featurisation.
type Features struct {
	feat    *estimator.Featurizer
	hist    *histogram.Estimator
	sampler *sampling.Estimator
}

// NewFeatures builds the feature pipeline (collects statistics, draws the
// sample).
func NewFeatures(t *dataset.Table, sampleSize int, seed int64) (*Features, error) {
	s, err := sampling.New(t, sampleSize, seed)
	if err != nil {
		return nil, err
	}
	return &Features{
		feat:    estimator.NewFeaturizer(t),
		hist:    histogram.NewSingle(t, histogram.Config{}),
		sampler: s,
	}, nil
}

// Dim returns the feature vector length.
func (f *Features) Dim() int { return f.feat.Dim() + 2 }

// Vector featurises a query: the flat per-column encoding plus the
// normalised log-estimates of the histogram and sampling estimators.
func (f *Features) Vector(q workload.Query) []float64 {
	return f.AppendVector(q, make([]float64, 0, f.Dim()))
}

// AppendVector appends the Dim() feature values for q to dst and returns the
// extended slice — the allocation-free form of Vector for batch kernels that
// pack feature rows into one pooled flat block. Appended values are
// bit-identical to Vector(q); safe for concurrent use (the underlying
// statistics are read-only after construction).
func (f *Features) AppendVector(q workload.Query, dst []float64) []float64 {
	dst = f.feat.AppendFeaturize(q, dst)
	hs := f.hist.EstimateSelectivity(q)
	ss := f.sampler.EstimateSelectivity(q)
	// Normalise log-estimates to roughly [0, 1]: log(MinSel) ~ -26.
	norm := func(s float64) float64 { return 1 - estimator.LogSel(s)/estimator.LogSel(estimator.MinSel) }
	return append(dst, norm(hs), norm(ss))
}

// Model is a trained LW-NN estimator.
type Model struct {
	name     string
	features *Features
	net      *nn.Net
	// pool recycles batch scratch buffers across EstimateSelectivityBatch
	// calls; its zero value is ready, so every construction site (training
	// and the serialize loader) gets batching for free.
	pool sync.Pool
}

// lwBatchScratch is one reusable buffer set of the batched inference path:
// the packed feature block, the row-to-query mapping for join queries that
// bypass the net, and the nn batch scratch.
type lwBatchScratch struct {
	xs  []float64
	idx []int
	bs  *nn.BatchScratch
}

// lwMinBlock is the smallest per-worker query block when the batch kernel
// shards: LW-NN featurisation (two auxiliary estimators per query) plus the
// forward pass amortise the fan-out from roughly this size up.
const lwMinBlock = 16

// EstimateSelectivityBatch implements estimator.BatchEstimator: out[i] is
// bit-identical to EstimateSelectivity(qs[i]) (join queries report 0, as in
// the sequential path) for any worker count. The batch is sharded in
// contiguous query blocks over the batch worker pool (par.RunBlocks); each
// block worker packs its feature rows into one pooled flat block
// (AppendVector — no per-query allocation) and walks the net once over it,
// writing only its own rows of out. Safe for concurrent use and performs
// zero per-query heap allocations once the scratch pool is warm.
func (m *Model) EstimateSelectivityBatch(qs []workload.Query, out []float64) {
	par.RunBlocks(len(qs), lwMinBlock, func(lo, hi int) error {
		m.estimateBlock(qs[lo:hi], out[lo:hi])
		return nil
	})
}

// estimateBlock runs the batched kernel over one contiguous query block,
// writing exactly len(qs) results into out.
func (m *Model) estimateBlock(qs []workload.Query, out []float64) {
	if len(qs) == 0 {
		return
	}
	s, _ := m.pool.Get().(*lwBatchScratch)
	if s == nil {
		s = &lwBatchScratch{bs: m.net.NewBatchScratch()}
	}
	defer m.pool.Put(s)
	s.xs = s.xs[:0]
	s.idx = s.idx[:0]
	for i, q := range qs {
		if q.IsJoin() {
			out[i] = 0
			continue
		}
		s.xs = m.features.AppendVector(q, s.xs)
		s.idx = append(s.idx, i)
	}
	if len(s.idx) == 0 {
		return
	}
	res := m.net.ForwardBatch(s.xs, len(s.idx), m.features.Dim(), s.bs)
	for j, i := range s.idx {
		out[i] = estimator.SelFromLog(res[j])
	}
}

// Train fits LW-NN on a labeled workload with MSE loss on log-selectivity.
func Train(t *dataset.Table, wl *workload.Workload, cfg Config) (*Model, error) {
	return train(t, wl, nn.MSELoss{}, "lwnn", cfg)
}

// TrainQuantile fits the tau-quantile variant with pinball loss, used by
// CQR (tau = alpha/2 for the lower model, 1-alpha/2 for the upper).
func TrainQuantile(t *dataset.Table, wl *workload.Workload, tau float64, cfg Config) (*Model, error) {
	if tau <= 0 || tau >= 1 {
		return nil, fmt.Errorf("lwnn: tau must be in (0,1), got %v", tau)
	}
	return train(t, wl, nn.PinballLoss{Tau: tau}, fmt.Sprintf("lwnn-q%.3f", tau), cfg)
}

func train(t *dataset.Table, wl *workload.Workload, loss nn.Loss, name string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if wl == nil || len(wl.Queries) == 0 {
		return nil, fmt.Errorf("lwnn: empty training workload")
	}
	features, err := NewFeatures(t, cfg.SampleSize, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Featurisation is per-query independent and read-only over the table
	// statistics; spread it over the worker pool.
	X := make([][]float64, len(wl.Queries))
	y := make([]float64, len(wl.Queries))
	par.ForEach(len(wl.Queries), func(i int) error {
		lq := wl.Queries[i]
		X[i] = features.Vector(lq.Query)
		y[i] = estimator.LogSel(lq.Sel)
		return nil
	})
	sizes := append([]int{features.Dim()}, cfg.Hidden...)
	sizes = append(sizes, 1)
	net := nn.NewNet(rand.New(rand.NewSource(cfg.Seed)), sizes...)
	if _, err := nn.Fit(net, X, y, loss, nn.TrainConfig{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, LR: cfg.LR, Seed: cfg.Seed + 1,
	}); err != nil {
		return nil, err
	}
	return &Model{name: name, features: features, net: net}, nil
}

// Name implements estimator.Estimator.
func (m *Model) Name() string { return m.name }

// EstimateSelectivity implements estimator.Estimator. LW-NN is a
// single-table model; join queries report selectivity 0.
func (m *Model) EstimateSelectivity(q workload.Query) float64 {
	if q.IsJoin() {
		return 0
	}
	return estimator.SelFromLog(m.net.Predict1(m.features.Vector(q)))
}
