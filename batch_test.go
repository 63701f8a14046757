package cardpi_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"cardpi"
	"cardpi/internal/par"
	"cardpi/internal/pipeline"
	"cardpi/internal/workload"
)

// comboConfig mirrors the pipeline package's fast-build test configuration:
// small table, short trainings, every family still exercised end to end.
func comboConfig(model, method string) pipeline.Config {
	return pipeline.Config{
		Dataset: "census", Model: model, Method: method,
		Alpha: 0.1, Rows: 2000, Queries: 300, Seed: 1, Epochs: 2,
	}
}

// sequentialIntervals answers qs one query at a time through the per-query
// reference composition (model estimate + conformal scalar API), the
// reference the batch path must reproduce bit for bit.
func sequentialIntervals(t *testing.T, pi cardpi.PI, qs []workload.Query) []cardpi.Interval {
	t.Helper()
	out := make([]cardpi.Interval, len(qs))
	for i, q := range qs {
		iv, err := cardpi.ReferenceInterval(pi, q)
		if err != nil {
			t.Fatalf("query %d: sequential reference: %v", i, err)
		}
		out[i] = iv
	}
	return out
}

// batchIntervals answers qs with one Intervals call.
func batchIntervals(pi cardpi.PI, qs []workload.Query) ([]cardpi.Interval, error) {
	out := make([]cardpi.Interval, len(qs))
	if err := pi.Intervals(context.Background(), qs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// assertBitIdentical fails unless got equals want under Float64bits on both
// endpoints — exact equality, not within-epsilon.
func assertBitIdentical(t *testing.T, label string, want, got []cardpi.Interval) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d intervals, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i].Lo) != math.Float64bits(got[i].Lo) ||
			math.Float64bits(want[i].Hi) != math.Float64bits(got[i].Hi) {
			t.Fatalf("%s: query %d: batch %+v differs from sequential %+v",
				label, i, got[i], want[i])
		}
	}
}

// TestIntervalBitIdentityAllCombos proves the tentpole contract for every
// valid model x method pair the pipeline can build: Intervals returns
// exactly the intervals the per-query reference composition returns, over a
// 500-query probe workload — at every batch worker count, since the
// row-block sharding must never change a single bit. For the histogram
// family (and one learned spot-check) the same identity is asserted after an
// artifact round-trip, so the rehydrated calibration state — including the
// localized method's rebuilt neighbour index — is covered too.
func TestIntervalBitIdentityAllCombos(t *testing.T) {
	for _, model := range pipeline.Models {
		model := model
		t.Run(model.Name, func(t *testing.T) {
			cfg := comboConfig(model.Name, "s-cp")
			base, err := pipeline.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			probe, err := workload.Generate(base.Table, workload.Config{
				Count: 500, Seed: 99, MinPreds: 1, MaxPreds: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			qs := make([]workload.Query, len(probe.Queries))
			for i, lq := range probe.Queries {
				qs[i] = lq.Query
			}
			for _, method := range pipeline.Methods {
				if method.NeedsPinball && !model.Pinball {
					continue
				}
				method := method
				cfg.Method = method.Name
				// Reuse the trained model and split; only the method's
				// calibration (and cqr's quantile models) is rebuilt.
				pi, err := pipeline.BuildPI(cfg, base.Model, base.Table, base.Train, base.Cal)
				if err != nil {
					t.Fatalf("%s: %v", method.Name, err)
				}
				t.Run(method.Name, func(t *testing.T) {
					want := sequentialIntervals(t, pi, qs)

					// The single-query entry point is a batch of one and must
					// reproduce the same bits.
					single := make([]cardpi.Interval, len(qs))
					for i, q := range qs {
						iv, err := cardpi.IntervalCtx(context.Background(), pi, q)
						if err != nil {
							t.Fatalf("query %d: IntervalCtx: %v", i, err)
						}
						single[i] = iv
					}
					assertBitIdentical(t, "IntervalCtx", want, single)

					// Artifact round-trip: cheap for the histogram family,
					// plus one learned spot-check (mscn + localized, whose
					// neighbour index is rebuilt at load time).
					var loadedPI cardpi.PI
					if model.Name == "histogram" || (model.Name == "mscn" && method.Name == "lcp") {
						setup := &pipeline.Setup{
							Table: base.Table, Model: base.Model, PI: pi,
							Train: base.Train, Cal: base.Cal,
						}
						var buf bytes.Buffer
						if err := pipeline.SaveBundle(&buf, setup, cfg); err != nil {
							t.Fatalf("save: %v", err)
						}
						loaded, _, err := pipeline.LoadBundle(bytes.NewReader(buf.Bytes()), pipeline.LoadOptions{})
						if err != nil {
							t.Fatalf("load: %v", err)
						}
						loadedPI = loaded.PI
					}

					// The sharded row-block kernels must reproduce the
					// sequential reference at every worker count, live and
					// after the artifact round-trip.
					defer par.SetBatchWorkers(0)
					for _, wk := range []int{1, 2, 3, runtime.NumCPU()} {
						par.SetBatchWorkers(wk)
						label := fmt.Sprintf("W=%d", wk)
						got, err := batchIntervals(pi, qs)
						if err != nil {
							t.Fatalf("%s: Intervals: %v", label, err)
						}
						assertBitIdentical(t, "live "+label, want, got)

						if loadedPI != nil {
							rehydrated, err := batchIntervals(loadedPI, qs)
							if err != nil {
								t.Fatalf("%s: rehydrated Intervals: %v", label, err)
							}
							assertBitIdentical(t, "rehydrated "+label, want, rehydrated)
						}
					}
				})
			}
		})
	}
}
