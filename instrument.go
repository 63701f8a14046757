package cardpi

import (
	"context"
	"time"

	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// Instrumented decorates a PI with observability: per-method call and error
// counters and a latency histogram, published on an obs.Registry under the
// metric families
//
//	cardpi_pi_calls_total{method=...}
//	cardpi_pi_errors_total{method=...}
//	cardpi_pi_latency_seconds{method=...}   (histogram)
//
// where method is the wrapped PI's Name() (e.g. "s-cp/spn"); every series
// counts queries, not calls. Recording is allocation-free — a few atomic
// operations per query around the inner Intervals call — so wrapping does
// not disturb the hot path (see BenchmarkInstrumentedInterval).
// Instrumented is safe for concurrent use whenever the wrapped PI is; every
// PI in this package is safe for concurrent Intervals calls.
type Instrumented struct {
	pi    PI
	calls *obs.Counter
	errs  *obs.Counter
	lat   *obs.Histogram
}

// Instrument wraps pi with metric recording on reg (obs.Default() is the
// registry `cardpi serve` exposes). The metric instruments are resolved once
// here, never on the per-query path. Wrapping an already-Instrumented PI
// returns it unchanged rather than double-counting.
func Instrument(pi PI, reg *obs.Registry) *Instrumented {
	if in, ok := pi.(*Instrumented); ok {
		return in
	}
	method := obs.L("method", pi.Name())
	return &Instrumented{
		pi:    pi,
		calls: reg.Counter("cardpi_pi_calls_total", "Queries answered through PI.Intervals, by method.", method),
		errs:  reg.Counter("cardpi_pi_errors_total", "Queries in PI.Intervals calls that returned an error, by method.", method),
		lat: reg.Histogram("cardpi_pi_latency_seconds",
			"Per-query PI.Intervals latency in seconds, by method.", obs.LatencyBuckets, method),
	}
}

// Name implements PI; it reports the wrapped method's name so instrumented
// and bare wrappers are interchangeable in reports.
func (in *Instrumented) Name() string { return in.pi.Name() }

// Intervals implements PI: it forwards the batch and the context to the
// wrapped PI and records what a sequential loop would — one call per query,
// the batch's amortised per-query latency into the histogram (keeping
// latency quantiles comparable across batch sizes), and one error per query
// when the call fails. Cancellations and deadline expiries count as errors.
// Units of the intervals are unchanged (normalised selectivity in [0, 1]).
func (in *Instrumented) Intervals(ctx context.Context, qs []workload.Query, dst []Interval) error {
	if len(qs) == 0 {
		return in.pi.Intervals(ctx, qs, dst)
	}
	start := time.Now()
	err := in.pi.Intervals(ctx, qs, dst)
	perQuery := time.Since(start).Seconds() / float64(len(qs))
	for range qs {
		in.lat.Observe(perQuery)
	}
	in.calls.Add(uint64(len(qs)))
	if err != nil {
		in.errs.Add(uint64(len(qs)))
	}
	return err
}

// Unwrap returns the underlying PI.
func (in *Instrumented) Unwrap() PI { return in.pi }
