// Quickstart: wrap a learned cardinality estimator with split conformal
// prediction and get per-query selectivity intervals with a 90% coverage
// guarantee.
//
// The flow mirrors the paper's minimal recipe: generate data and a labeled
// query workload, split it into train/calibration/test, train a model on the
// training split, calibrate the wrapper on the calibration split, and read
// coverage + width off the test split.
package main

import (
	"context"
	"fmt"
	"log"

	"cardpi"
	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/mscn"
	"cardpi/internal/workload"
)

func main() {
	// 1. A DMV-shaped table and a labeled conjunctive-query workload.
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 20000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{
		Count: 2400, Seed: 2, MinPreds: 2, MaxPreds: 5, MaxSelectivity: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := wl.Split(3, 0.5, 0.25, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	train, cal, test := parts[0], parts[1], parts[2]

	// 2. Train MSCN (any estimator.Estimator works — the wrapper treats the
	// model as a black box).
	model, err := mscn.Train(mscn.NewSingleFeaturizer(tab), train, mscn.Config{Epochs: 25, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Calibrate split conformal prediction at coverage 0.9.
	pi, err := cardpi.WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Intervals for individual queries.
	fmt.Println("sample prediction intervals (selectivity):")
	for _, lq := range test.Queries[:5] {
		iv, err := cardpi.IntervalCtx(context.Background(), pi, lq.Query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  true=%.5f  est=%.5f  PI=[%.5f, %.5f]  covered=%v\n",
			lq.Sel, model.EstimateSelectivity(lq.Query), iv.Lo, iv.Hi, iv.Contains(lq.Sel))
	}

	// 5. Aggregate evaluation over the test workload.
	ev, err := cardpi.Evaluate(pi, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", ev)
}
