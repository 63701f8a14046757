package cardpi

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cardpi/internal/conformal"
	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// Evaluation summarises a PI method over a test workload: empirical
// coverage, interval width statistics (in selectivity units), and per-query
// inference latency. The workload is answered in chunks of evaluateChunk
// queries, one Intervals call each, and every query is charged its chunk's
// amortised per-query latency — the figure a batched caller pays.
type Evaluation struct {
	// Name is the evaluated method's PI.Name() (e.g. "s-cp/spn").
	Name string
	// Coverage is the empirical fraction of test queries whose true
	// selectivity fell inside the interval (target: 1-alpha).
	Coverage float64
	// Widths summarises the interval-width distribution in normalised
	// selectivity units.
	Widths conformal.WidthStats
	// MeanPITime and P99PITime are the mean and nearest-rank 99th
	// percentile of per-query Intervals wall time; see EXPERIMENTS.md
	// ("Reading the numbers") for how to interpret them.
	MeanPITime time.Duration
	// P99PITime is the per-call p99 latency companion to MeanPITime.
	P99PITime time.Duration
	// Intervals are the per-query intervals, aligned with the workload.
	Intervals []Interval
}

// Evaluate runs a PI method over every query of a test workload, in
// workload-ordered chunks; the PI's own batch path shards each chunk over
// the batch worker pool, and Intervals stays in workload order.
//
// Evaluate also publishes its results on the process-wide obs registry
// (obs.Default()), labeled by the method's Name(): a run counter, the latest
// coverage and mean width as gauges, and every per-query latency into the
// cardpi_pi_latency_seconds histogram — unless pi is already Instrumented,
// in which case the wrapper records latencies itself and Evaluate skips the
// histogram to avoid double counting.
func Evaluate(pi PI, test *workload.Workload) (*Evaluation, error) {
	return EvaluateCtx(context.Background(), pi, test)
}

// EvaluateCtx is Evaluate under a context: every Intervals call sees ctx,
// no further chunk is dispatched once ctx is cancelled, and the evaluation
// returns ctx.Err(). Units and metrics behaviour match Evaluate.
func EvaluateCtx(ctx context.Context, pi PI, test *workload.Workload) (*Evaluation, error) {
	if test == nil || len(test.Queries) == 0 {
		return nil, fmt.Errorf("cardpi: empty test workload")
	}
	method := obs.L("method", pi.Name())
	reg := obs.Default()
	var lat *obs.Histogram
	if _, instrumented := pi.(*Instrumented); !instrumented {
		lat = reg.Histogram("cardpi_pi_latency_seconds",
			"Per-query PI.Intervals latency in seconds, by method.", obs.LatencyBuckets, method)
	}
	intervals := make([]Interval, len(test.Queries))
	truths := make([]float64, len(test.Queries))
	times := make([]time.Duration, len(test.Queries))
	chunk := make([]workload.Query, 0, evaluateChunk)
	for start := 0; start < len(test.Queries); start += evaluateChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := min(start+evaluateChunk, len(test.Queries))
		chunk = chunk[:0]
		for i := start; i < end; i++ {
			chunk = append(chunk, test.Queries[i].Query)
			truths[i] = test.Queries[i].Sel
		}
		chunkStart := time.Now()
		err := pi.Intervals(ctx, chunk, intervals[start:end])
		perQuery := time.Since(chunkStart) / time.Duration(len(chunk))
		if err != nil {
			return nil, err
		}
		for i := start; i < end; i++ {
			times[i] = perQuery
			if lat != nil {
				lat.Observe(perQuery.Seconds())
			}
		}
	}
	cov, err := conformal.Coverage(intervals, truths)
	if err != nil {
		return nil, err
	}
	widths, err := conformal.Widths(intervals)
	if err != nil {
		return nil, err
	}
	reg.Counter("cardpi_evaluate_runs_total",
		"Completed Evaluate runs, by method.", method).Inc()
	reg.Gauge("cardpi_evaluate_coverage",
		"Empirical coverage of the most recent Evaluate run, by method.", method).Set(cov)
	reg.Gauge("cardpi_evaluate_width_mean",
		"Mean interval width (normalised selectivity) of the most recent Evaluate run, by method.", method).Set(widths.Mean)
	mean, p99 := latencyStats(times)
	return &Evaluation{
		Name:       pi.Name(),
		Coverage:   cov,
		Widths:     widths,
		MeanPITime: mean,
		P99PITime:  p99,
		Intervals:  intervals,
	}, nil
}

// evaluateChunk bounds how many queries EvaluateCtx hands to one Intervals
// call: large enough to amortise the batch path's fixed costs, small enough
// that cancellation is honoured promptly between chunks.
const evaluateChunk = 256

// latencyStats reduces per-call durations to their mean and p99 (nearest-
// rank, clamped to the maximum for small samples).
func latencyStats(times []time.Duration) (mean, p99 time.Duration) {
	var total time.Duration
	for _, d := range times {
		total += d
	}
	mean = total / time.Duration(len(times))
	sorted := append([]time.Duration(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := min((99*len(sorted)+99)/100, len(sorted)) - 1
	p99 = sorted[idx]
	return mean, p99
}

// String renders a one-line summary.
func (e *Evaluation) String() string {
	return fmt.Sprintf("%-18s coverage=%.3f meanWidth=%.5f p90Width=%.5f latency=%s p99=%s",
		e.Name, e.Coverage, e.Widths.Mean, e.Widths.P90, e.MeanPITime, e.P99PITime)
}
