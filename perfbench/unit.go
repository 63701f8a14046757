package main

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"cardpi"
	"cardpi/internal/cache"
	"cardpi/internal/codec"
	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/histogram"
	"cardpi/internal/obs"
	"cardpi/internal/pipeline"
	"cardpi/internal/recal"
	"cardpi/internal/scenario"
	"cardpi/internal/workload"
)

// Span names: the public function of each layer the serve path calls, in
// the order it calls them.
const (
	spanRequest    = "serve.request"
	spanDecode     = "codec.DecodeWireRequest"
	spanParse      = "workload.ParseQuery"
	spanKey        = "cache.KeyOf"
	spanGet        = "cache.Get"
	spanDo         = "cache.Do"
	spanPut        = "cache.Put"
	spanChain      = "cardpi.Resilient.IntervalDepthCtx"
	spanChainBatch = "cardpi.Resilient.IntervalBatchDepthCtx"
	spanCount      = "dataset.Table.Count"
	spanObserve    = "cardpi.Adaptive.Observe"
	spanRecord     = "recal.Supervisor.Record"
	spanDrifted    = "cardpi.Adaptive.Drifted"
	spanRollCov    = "cardpi.Adaptive.RollingCoverage"
	spanPoint      = "estimator.EstimateSelectivity"
	spanEncode     = "codec.AppendWireResponse"
	spanWrite      = "scenario.write"
	spanClone      = "scenario.Clone"
	spanInsert     = "scenario.InsertSkewed"
	spanInvalidate = "cache.Invalidate"
	spanBuild      = "recal.Supervisor.BuildCandidate"
)

// chain is the swappable half of a unit, as in the server: the point model
// and the resilient interval chain around it.
type chain struct {
	model     cardpi.Estimator
	resilient *cardpi.Resilient
}

// unit is an in-process copy of the server's default serving unit, built
// from the same setup with the same chain, fallback, monitor, cache and
// recalibration wiring. The replay drives it through the same public
// functions, in the same order, as the server's handlers; every call is
// wrapped in a span of tr.
type unit struct {
	tr       *tracer
	tab      atomic.Pointer[dataset.Table]
	ch       atomic.Pointer[chain]
	adaptive *cardpi.Adaptive
	fallback cardpi.PI
	cache    *cache.Cache
	sup      *recal.Supervisor
	reg      *obs.Registry
}

// newUnit mirrors the server's newServingUnit and newServer for one
// workload's settings; metrics go to a private registry. It records no
// spans until its tracer is set.
func newUnit(s *pipeline.Setup, w *workloadSpec) (*unit, error) {
	reg := obs.NewRegistry()
	adaptive, err := cardpi.NewAdaptive(s.Model, s.Cal, conformal.ResidualScore{}, cardpi.AdaptiveConfig{
		Alpha: serverAlpha, Window: serverWindow, Seed: serverSeed + 100, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	fallback, err := cardpi.WrapSplitCP(histogram.NewSingle(s.Table, histogram.Config{}), s.Cal, conformal.ResidualScore{}, serverAlpha/2)
	if err != nil {
		return nil, err
	}
	u := &unit{adaptive: adaptive, fallback: fallback, reg: reg}
	res, err := u.resilient(s.PI)
	if err != nil {
		return nil, err
	}
	u.tab.Store(s.Table)
	u.ch.Store(&chain{model: s.Model, resilient: res})
	if w.cacheEntries > 0 {
		u.cache = cache.New(cache.Config{Entries: w.cacheEntries, Metrics: cache.NewMetrics(reg)})
		adaptive.OnRecalibrate(u.cache.Invalidate)
	}
	if w.recal {
		u.sup, err = recal.New(recal.Config{
			Base: s.Model, Alpha: serverAlpha, Window: recalWindow, MaxAttempts: recalMaxAttempts,
			NormN:   int64(s.Table.NumRows()),
			Drifted: adaptive.Drifted,
			Swap:    u.swap,
			Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
	}
	return u, nil
}

// resilient wraps a primary PI the way the server does: instrumented, with
// the histogram split-CP fallback and the server's default breaker tuning.
func (u *unit) resilient(primary cardpi.PI) (*cardpi.Resilient, error) {
	return cardpi.NewResilient(cardpi.Instrument(primary, u.reg), cardpi.ResilientConfig{
		Fallbacks:        []cardpi.PI{u.fallback},
		FailureThreshold: 5,
		OpenFor:          5 * time.Second,
		Metrics:          u.reg,
	})
}

// swap installs a validated recalibration candidate, as the server's
// swapChain does. It runs on the supervisor's goroutine, so it records no
// spans.
func (u *unit) swap(c *recal.Candidate) error {
	res, err := u.resilient(c.PI)
	if err != nil {
		return err
	}
	if err := u.adaptive.RecalibrateModel(c.Model, c.Window); err != nil {
		return err
	}
	u.ch.Store(&chain{model: c.Model, resilient: res})
	if u.cache != nil {
		u.cache.Invalidate()
	}
	return nil
}

// serveSingle answers one /estimate request the way handleEstimate does.
func (u *unit) serveSingle(ctx context.Context, line string) error {
	t := u.tr
	root := t.begin(spanRequest)
	defer t.end(root)
	tab, ch := u.tab.Load(), u.ch.Load()
	sp := t.begin(spanParse)
	q, err := workload.ParseQuery(tab, line)
	t.end(sp)
	if err != nil {
		return err
	}
	if u.cache == nil {
		sp = t.begin(spanChain)
		iv, _ := ch.resilient.IntervalDepthCtx(ctx, q)
		t.end(sp)
		u.compute(ch, tab, q, iv)
	} else {
		sp = t.begin(spanKey)
		k := cache.KeyOf(q)
		t.end(sp)
		sp = t.begin(spanGet)
		_, hit := u.cache.Get(k)
		t.end(sp)
		if !hit {
			sp = t.begin(spanDo)
			_, _, _, _ = u.cache.Do(k, func() (cache.Result, uint64, bool, error) {
				ftab, fch := u.tab.Load(), u.ch.Load()
				sp := t.begin(spanChain)
				iv, depth := fch.resilient.IntervalDepthCtx(ctx, q)
				t.end(sp)
				return u.compute(fch, ftab, q, iv), uint64(depth), depth == 0, nil
			})
			t.end(sp)
		}
	}
	u.readMonitor()
	return nil
}

// serveBatch answers one /estimate/batch request the way
// handleEstimateBatch does; wire selects the binary format, whose request
// frame the caller has already encoded into body.
func (u *unit) serveBatch(ctx context.Context, lines []string, body []byte, wire bool) error {
	t := u.tr
	root := t.begin(spanRequest)
	defer t.end(root)
	var epoch uint64
	if u.cache != nil {
		epoch = u.cache.Epoch().Load()
	}
	tab, ch := u.tab.Load(), u.ch.Load()
	if wire {
		sp := t.begin(spanDecode)
		raw, err := codec.DecodeWireRequest(body, nil)
		t.end(sp)
		if err != nil {
			return err
		}
		lines = make([]string, 0, len(raw))
		for _, q := range raw {
			lines = append(lines, string(q))
		}
	}
	qs := make([]workload.Query, len(lines))
	for i, line := range lines {
		sp := t.begin(spanParse)
		q, err := workload.ParseQuery(tab, line)
		t.end(sp)
		if err != nil {
			return err
		}
		qs[i] = q
	}
	results := make([]cache.Result, len(qs))
	depths := make([]int, len(qs))
	if u.cache == nil {
		sp := t.begin(spanChainBatch)
		ivs, ds := ch.resilient.IntervalBatchDepthCtx(ctx, qs)
		t.end(sp)
		copy(depths, ds)
		for i := range qs {
			results[i] = u.compute(ch, tab, qs[i], ivs[i])
		}
	} else {
		keys := make([]cache.Key, len(qs))
		var missQs []workload.Query
		var missIdx []int
		for i := range qs {
			sp := t.begin(spanKey)
			keys[i] = cache.KeyOf(qs[i])
			t.end(sp)
			sp = t.begin(spanGet)
			r, ok := u.cache.Get(keys[i])
			t.end(sp)
			if ok {
				results[i] = r
				continue
			}
			missQs = append(missQs, qs[i])
			missIdx = append(missIdx, i)
		}
		if len(missQs) > 0 {
			sp := t.begin(spanChainBatch)
			ivs, ds := ch.resilient.IntervalBatchDepthCtx(ctx, missQs)
			t.end(sp)
			for j, idx := range missIdx {
				results[idx] = u.compute(ch, tab, qs[idx], ivs[j])
				depths[idx] = ds[j]
				if ds[j] == 0 {
					sp = t.begin(spanPut)
					u.cache.Put(keys[idx], epoch, results[idx])
					t.end(sp)
				}
			}
		}
	}
	n := float64(tab.NumRows())
	var frames []codec.WireResult
	for i, res := range results {
		drifted, rollCov := u.readMonitor()
		if wire {
			var flags uint8
			if drifted {
				flags = codec.WireFlagDrifted
			}
			frames = append(frames, codec.WireResult{
				EstSel: res.Est, EstRows: res.Est * n, LoSel: res.Lo, HiSel: res.Hi,
				LoRows: res.Lo * n, HiRows: res.Hi * n, TrueRows: res.TrueRows,
				RollCov: rollCov, Depth: uint8(depths[i]), Flags: flags,
			})
		}
	}
	if wire {
		sp := t.begin(spanEncode)
		codec.AppendWireResponse(nil, uint64(tab.NumRows()), frames)
		t.end(sp)
	}
	return nil
}

// compute is the server's computeResult: exact count, monitor and
// recalibration-window feed, and the point estimate.
func (u *unit) compute(ch *chain, tab *dataset.Table, q workload.Query, iv cardpi.Interval) cache.Result {
	t := u.tr
	sp := t.begin(spanCount)
	truth, err := tab.Count(q.Preds)
	t.end(sp)
	hasTruth := err == nil
	if hasTruth {
		sel := float64(truth) / float64(tab.NumRows())
		sp = t.begin(spanObserve)
		u.adaptive.Observe(q, sel)
		t.end(sp)
		if u.sup != nil {
			sp = t.begin(spanRecord)
			u.sup.Record(q, sel)
			t.end(sp)
			sp = t.begin(spanDrifted)
			drifted := u.adaptive.Drifted()
			t.end(sp)
			if drifted {
				u.sup.Kick()
			}
		}
	} else {
		truth = -1
	}
	sp = t.begin(spanPoint)
	est := ch.model.EstimateSelectivity(q)
	t.end(sp)
	if math.IsNaN(est) || math.IsInf(est, 0) {
		est = -1
	}
	return cache.Result{Est: est, Lo: iv.Lo, Hi: iv.Hi, TrueRows: truth, HasTruth: hasTruth}
}

// readMonitor is the render's live telemetry read.
func (u *unit) readMonitor() (drifted bool, rollCov float64) {
	t := u.tr
	sp := t.begin(spanDrifted)
	drifted = u.adaptive.Drifted()
	t.end(sp)
	sp = t.begin(spanRollCov)
	rollCov = u.adaptive.RollingCoverage()
	t.end(sp)
	return drifted, rollCov
}

// write is the /admin/scenario insert: clone the serving table, append the
// skewed rows, publish the clone, then invalidate the cache.
func (u *unit) write(seed int64) error {
	t := u.tr
	root := t.begin(spanWrite)
	defer t.end(root)
	sp := t.begin(spanClone)
	clone := scenario.Clone(u.tab.Load())
	t.end(sp)
	sp = t.begin(spanInsert)
	_, err := scenario.InsertSkewed(clone, insertRows, seed)
	t.end(sp)
	if err != nil {
		return err
	}
	u.tab.Store(clone)
	if u.cache != nil {
		sp = t.begin(spanInvalidate)
		u.cache.Invalidate()
		t.end(sp)
	}
	return nil
}
