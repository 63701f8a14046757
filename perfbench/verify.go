package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"cardpi"
	"cardpi/internal/cache"
	"cardpi/internal/dataset"
	"cardpi/internal/pipeline"
	"cardpi/internal/scenario"
	"cardpi/internal/workload"
)

// serverConfig is the pipeline configuration `cardpi serve` builds from the
// workload's flags; the replica builds the same one.
func serverConfig(w *workloadSpec) pipeline.Config {
	return pipeline.Config{
		Dataset: serverDataset, Rows: serverRows, Queries: serverQueries,
		Alpha: serverAlpha, Seed: serverSeed, Model: w.model, Method: w.method,
	}
}

// expectation is what the server's initial chain must answer for a query.
type expectation struct {
	lo, hi, est float64
}

// replica holds the benchmark's own answers for every universe query: the
// interval and point estimate of an in-process chain built from the
// server's config and seed, and exact counts on every table snapshot the
// server has served.
type replica struct {
	setup *pipeline.Setup
	w     *workloadSpec
	// chainName is the name the server reports for its initial chain;
	// every recalibration swap replaces it.
	chainName string
	// lines, qs and expect cover the query universe and, after it, the
	// settle set: the fixed queries the settle phase recalibrates on.
	lines  []string
	qs     []workload.Query
	expect []expectation
	// settle holds the indices of the settle set's first recalWindow
	// queries with distinct cache keys.
	settle []int
	// snaps[k] is the table after the first k writes of the run.
	snaps  []*dataset.Table
	counts []map[int]int64 // counts[k][query index], filled on demand
}

// settleSeed generates the settle set. It is fixed, not derived from the
// workload seed, so the chain the settle phase pins is fitted to the same
// queries in every run.
const settleSeed = 1 << 20

// newReplica parses the universe (and, on a recalibrating workload, the
// settle set) against the base table and computes the initial chain's
// answer for every query.
func newReplica(s *pipeline.Setup, w *workloadSpec, universe []string) (*replica, error) {
	u, err := newUnit(s, w)
	if err != nil {
		return nil, err
	}
	lines := append([]string(nil), universe...)
	if w.recal {
		set, err := buildUniverse(s.Table, 3*recalWindow, settleSeed)
		if err != nil {
			return nil, err
		}
		lines = append(lines, set...)
	}
	r := &replica{
		setup:  s,
		w:      w,
		lines:  lines,
		qs:     make([]workload.Query, len(lines)),
		expect: make([]expectation, len(lines)),
		snaps:  []*dataset.Table{s.Table},
		counts: []map[int]int64{{}},
	}
	for i, line := range lines {
		if r.qs[i], err = workload.ParseQuery(s.Table, line); err != nil {
			return nil, fmt.Errorf("parse query %q: %w", line, err)
		}
	}
	if w.recal {
		if r.settle = r.distinct(len(universe), recalWindow); len(r.settle) < recalWindow {
			return nil, fmt.Errorf("settle set has %d distinct cache keys, want %d", len(r.settle), recalWindow)
		}
	}
	return r, r.answer(u.ch.Load())
}

// answer makes ch the chain the replica expects the server to serve from
// and computes its answer for every query, on two goroutines. Every answer
// must come from the primary stage.
func (r *replica) answer(ch *chain) error {
	r.chainName = ch.resilient.Name()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(r.lines); i += len(errs) {
				iv, depth := ch.resilient.IntervalDepthCtx(context.Background(), r.qs[i])
				if depth != 0 {
					errs[g] = fmt.Errorf("replica chain %s fell back to depth %d on %q", r.chainName, depth, r.lines[i])
					return
				}
				est := ch.model.EstimateSelectivity(r.qs[i])
				if math.IsNaN(est) || math.IsInf(est, 0) {
					est = -1
				}
				r.expect[i] = expectation{lo: iv.Lo, hi: iv.Hi, est: est}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// distinct returns the first n universe indices from start on whose
// queries have distinct cache keys, so that after a write each of them
// misses the server's cache. It returns fewer when the universe runs out.
func (r *replica) distinct(start, n int) []int {
	seen := make(map[cache.Key]bool, n)
	out := make([]int, 0, n)
	for i := start; i < len(r.qs) && len(out) < n; i++ {
		if k := cache.KeyOf(r.qs[i]); !seen[k] {
			seen[k] = true
			out = append(out, i)
		}
	}
	return out
}

// recalibrate rebuilds the chain the server serves after settle: a fresh
// supervisor records the settle set's exact selectivities on snapshot k,
// in the order and window slots the server recorded them, and builds the
// candidate that every episode after the settle phase builds. The replica
// then expects that candidate chain's answers.
func (r *replica) recalibrate(k int) error {
	u, err := newUnit(r.setup, r.w)
	if err != nil {
		return err
	}
	n := float64(r.snaps[k].NumRows())
	for _, qi := range r.settle {
		c, err := r.count(qi, k)
		if err != nil {
			return err
		}
		u.sup.Record(r.qs[qi], float64(c)/n)
	}
	cand, err := u.sup.BuildCandidate()
	if err != nil {
		return fmt.Errorf("replica recalibration: %w", err)
	}
	if !cand.Report.Accepted {
		return fmt.Errorf("replica recalibration candidate rejected (%s) where the server's was accepted", cand.Report.Reason)
	}
	if err := u.swap(cand); err != nil {
		return err
	}
	return r.answer(u.ch.Load())
}

// replayWrites rebuilds the snapshots after writes 1..k of a run by
// applying the same seeded inserts to a clone of the base table. Inserts
// only append, so snapshot j is a row prefix of the last one.
func (r *replica) replayWrites(seed int64, k int) error {
	base := r.snaps[0]
	final := scenario.Clone(base)
	r.snaps, r.counts = r.snaps[:1], r.counts[:1]
	for j := 1; j <= k; j++ {
		if _, err := scenario.InsertSkewed(final, insertRows, writeSeed(seed, j)); err != nil {
			return err
		}
		r.snaps = append(r.snaps, prefix(final, base.NumRows()+j*insertRows))
		r.counts = append(r.counts, map[int]int64{})
	}
	return nil
}

// prefix is a read-only view of the first n rows of t.
func prefix(t *dataset.Table, n int) *dataset.Table {
	cols := make([]*dataset.Column, len(t.Cols))
	for i, c := range t.Cols {
		nc := *c
		nc.Values = c.Values[:n:n]
		cols[i] = &nc
	}
	return dataset.MustNewTable(t.Name, cols)
}

// count is the exact row count of query qi on snapshot k.
func (r *replica) count(qi, k int) (int64, error) {
	if c, ok := r.counts[k][qi]; ok {
		return c, nil
	}
	c, err := r.snaps[k].Count(r.qs[qi].Preds)
	if err != nil {
		return 0, err
	}
	r.counts[k][qi] = c
	return c, nil
}

// check compares one served answer for query qi with the replica. The
// answer may reflect any snapshot in [snapLo, snapHi] — the writes that had
// completed when the request was sent through those that had started when
// its answer arrived — and the server may resolve the table it scales rows
// by separately from the one it counted on, so each is matched on its own.
// With bits set, the interval and point estimate must equal the initial
// chain's bit for bit; it is cleared once a recalibration swap may have
// replaced that chain. No fault is injected and the replica's chain
// answered every query from its primary stage, so with bits set an answer
// from a fallback stage is a mismatch too.
func (r *replica) check(qi int, got reply, snapLo, snapHi int, bits bool) error {
	if snapLo < 0 || snapHi >= len(r.snaps) || snapLo > snapHi {
		return fmt.Errorf("query %q: snapshot range [%d, %d] outside the %d known", r.lines[qi], snapLo, snapHi, len(r.snaps))
	}
	if bits {
		if !got.primary() {
			return fmt.Errorf("query %q: served by %q, the replica's chain answered from its primary stage", r.lines[qi], got.ServedBy)
		}
		e := r.expect[qi]
		if !sameBits(got.LoSel, e.lo) || !sameBits(got.HiSel, e.hi) || !sameBits(got.EstSel, e.est) {
			return fmt.Errorf("query %q: served lo/hi/est %v/%v/%v, replica %v/%v/%v",
				r.lines[qi], got.LoSel, got.HiSel, got.EstSel, e.lo, e.hi, e.est)
		}
	}
	if got.TrueRows >= 0 {
		matched := false
		for k := snapLo; k <= snapHi && !matched; k++ {
			c, err := r.count(qi, k)
			if err != nil {
				return err
			}
			matched = c == got.TrueRows
		}
		if !matched {
			return fmt.Errorf("query %q: served true_rows %d matches no exact count on snapshots %d..%d",
				r.lines[qi], got.TrueRows, snapLo, snapHi)
		}
	}
	for k := snapLo; k <= snapHi; k++ {
		n := int64(r.snaps[k].NumRows())
		civ := cardpi.CardinalityInterval(cardpi.Interval{Lo: got.LoSel, Hi: got.HiSel}, n)
		if sameBits(got.LoRows, civ.Lo) && sameBits(got.HiRows, civ.Hi) && sameBits(got.EstRows, got.EstSel*float64(n)) {
			return nil
		}
	}
	return fmt.Errorf("query %q: served rows lo/hi/est %v/%v/%v do not scale the selectivities by any snapshot size in %d..%d",
		r.lines[qi], got.LoRows, got.HiRows, got.EstRows, snapLo, snapHi)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
