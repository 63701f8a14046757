package cardpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"cardpi/internal/conformal"
	"cardpi/internal/estimator"
	"cardpi/internal/faultinject"
	"cardpi/internal/gbm"
	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// mustPI unwraps a constructor's (PI, error) pair for table tests.
func mustPI[T PI](t *testing.T) func(T, error) PI {
	return func(pi T, err error) PI {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return pi
	}
}

// TestIntervalCtxMatchesIntervalsEveryPI covers the single PI contract for
// every PI type: IntervalCtx, the one single-query entry point, returns
// exactly row i of an Intervals call over the batch, and a call under a done
// context returns ctx.Err() — except Resilient, which never errors and
// serves the fail-safe full-domain interval instead.
func TestIntervalCtxMatchesIntervalsEveryPI(t *testing.T) {
	model, ff, train, cal, test := fixture(t)
	score := conformal.ResidualScore{}
	gcfg := gbm.Config{NumTrees: 20, MaxDepth: 3, Seed: 3}
	scp := mustPI[*SplitCP](t)(WrapSplitCP(model, cal, score, 0.1))
	lo := estimator.Func{N: "lo", F: func(q workload.Query) float64 { return 0.7 * model.EstimateSelectivity(q) }}
	hi := estimator.Func{N: "hi", F: func(q workload.Query) float64 { return 1.5*model.EstimateSelectivity(q) + 0.001 }}
	tf := func(*workload.Workload, int64) (Estimator, error) { return model, nil }
	pis := []PI{
		scp,
		mustPI[*LocallyWeighted](t)(WrapLocallyWeighted(model, train, cal, ff, score, 0.1, gcfg)),
		mustPI[*CQR](t)(WrapCQR(lo, hi, cal, 0.1)),
		mustPI[*Localized](t)(WrapLocalized(model, cal, ff, score, 0.1, 20)),
		mustPI[*Weighted](t)(WrapWeighted(model, cal, test, ff, score, 0.1, gcfg)),
		mustPI[*Mondrian](t)(WrapMondrian(model, cal, TemplateGroup, score, 0.1, 5)),
		mustPI[*JackknifeCV](t)(WrapJackknifeCV(tf, train, 5, 0.1, 5)),
		Instrument(scp, obs.NewRegistry()),
		mustPI[*Cached](t)(NewCached(scp, CacheConfig{})),
		mustPI[*Adaptive](t)(NewAdaptive(model, cal, score, AdaptiveConfig{Alpha: 0.1, Seed: 1})),
		faultinject.WrapPI(scp, faultinject.MustPlan(faultinject.Spec{})),
		mustPI[*Resilient](t)(NewResilient(scp, ResilientConfig{Fallbacks: []PI{scp}})),
	}
	qs := queriesOf(test)[:64]
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, pi := range pis {
		t.Run(fmt.Sprintf("%T", pi), func(t *testing.T) {
			_, resilient := pi.(*Resilient)
			dst := make([]Interval, len(qs))
			err := pi.Intervals(done, qs, dst)
			single, singleErr := IntervalCtx(done, pi, qs[0])
			if resilient {
				if err != nil || singleErr != nil {
					t.Fatalf("done context: errors %v, %v; want nil", err, singleErr)
				}
				for i, iv := range append(dst, single) {
					if iv != (Interval{Lo: 0, Hi: 1}) {
						t.Fatalf("done context: row %d = %+v, want the fail-safe [0, 1]", i, iv)
					}
				}
			} else if !errors.Is(err, context.Canceled) || !errors.Is(singleErr, context.Canceled) {
				t.Fatalf("done context: errors %v, %v; want context.Canceled", err, singleErr)
			}

			rows := make([]Interval, len(qs))
			if err := pi.Intervals(context.Background(), qs, rows); err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				iv, err := IntervalCtx(context.Background(), pi, q)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if math.Float64bits(iv.Lo) != math.Float64bits(rows[i].Lo) ||
					math.Float64bits(iv.Hi) != math.Float64bits(rows[i].Hi) {
					t.Fatalf("query %d: IntervalCtx %+v differs from Intervals row %+v", i, iv, rows[i])
				}
			}
		})
	}
}

// TestResilientBatchHonoursDeadline: every stage of a batched chain runs
// under the request context, so a primary stuck in a latency fault longer
// than the deadline cannot hold the batch past it — the rows degrade below
// the primary as soon as the deadline passes.
func TestResilientBatchHonoursDeadline(t *testing.T) {
	plan := faultinject.MustPlan(faultinject.Spec{Latency: 1, Delay: 500 * time.Millisecond})
	primary := faultinject.WrapPI(&scriptedPI{iv: Interval{Lo: 0.2, Hi: 0.3}}, plan)
	r := mustResilient(t, primary, ResilientConfig{
		Fallbacks: []PI{&scriptedPI{iv: Interval{Lo: 0.1, Hi: 0.5}}},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	ivs, depths := r.IntervalBatchDepthCtx(ctx, make([]workload.Query, 2))
	if elapsed := time.Since(start); elapsed >= 150*time.Millisecond {
		t.Fatalf("batch took %s under a 50ms deadline", elapsed)
	}
	for i, d := range depths {
		if d == 0 {
			t.Fatalf("row %d served by the primary (%+v) despite its 500ms latency fault", i, ivs[i])
		}
	}
}

// TestInstrumentCountsEveryQueryOfFailedBatch: a failed batch call counts
// one error per query, matching its one call per query, so the error ratio
// reads the same on batched and single-query traffic.
func TestInstrumentCountsEveryQueryOfFailedBatch(t *testing.T) {
	reg := obs.NewRegistry()
	in := Instrument(&flakyPI{fail: true}, reg)
	const n = 8
	if err := in.Intervals(context.Background(), make([]workload.Query, n), make([]Interval, n)); err == nil {
		t.Fatal("expected the failing PI's error")
	}
	method := obs.L("method", "flaky/unit")
	calls := reg.Counter("cardpi_pi_calls_total", "", method).Value()
	errs := reg.Counter("cardpi_pi_errors_total", "", method).Value()
	if calls != n || errs != n {
		t.Fatalf("calls = %d, errors = %d; want %d and %d", calls, errs, n, n)
	}
}
