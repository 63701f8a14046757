// Drift: operating prediction intervals in production when the workload (or
// the data under the model) shifts. An Adaptive wrapper feeds every executed
// query back into the calibration set, a sliding window ages out stale
// scores, and a plug-in martingale raises an alarm when exchangeability
// breaks — the moment at which the coverage guarantee would silently erode
// without monitoring. It also demonstrates checkpointing a trained model to
// disk and reloading it.
package main

import (
	"bytes"
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
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 10000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{
		Count: 1800, Seed: 2, MinPreds: 2, MaxPreds: 4, MaxSelectivity: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := wl.Split(3, 0.5, 0.25, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	train, cal, live := parts[0], parts[1], parts[2]

	f := mscn.NewSingleFeaturizer(tab)
	model, err := mscn.Train(f, train, mscn.Config{Epochs: 20, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}

	// Checkpoint the trained model and reload it — what a deployment would
	// do instead of retraining on every restart.
	var checkpoint bytes.Buffer
	if _, err := model.WriteTo(&checkpoint); err != nil {
		log.Fatal(err)
	}
	size := checkpoint.Len()
	reloaded, err := mscn.ReadModel(&checkpoint, f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint round-trip: %d bytes, predictions identical: %v\n",
		size,
		model.EstimateSelectivity(live.Queries[0].Query) == reloaded.EstimateSelectivity(live.Queries[0].Query))

	adaptive, err := cardpi.NewAdaptive(reloaded, cal, conformal.ResidualScore{}, cardpi.AdaptiveConfig{
		Alpha: 0.1, Window: 1024, Significance: 0.001, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: the live workload matches calibration — coverage holds, no
	// alarm.
	hits := 0
	for _, lq := range live.Queries {
		iv, err := cardpi.IntervalCtx(context.Background(), adaptive, lq.Query)
		if err != nil {
			log.Fatal(err)
		}
		if iv.Contains(lq.Sel) {
			hits++
		}
		adaptive.Observe(lq.Query, lq.Sel)
	}
	fmt.Printf("steady state: coverage=%.3f calSize=%d drift=%v (stat %.2f)\n",
		float64(hits)/float64(len(live.Queries)), adaptive.CalibrationSize(),
		adaptive.Drifted(), adaptive.DriftStatistic())

	// Phase 2: the data under the model changes (simulated by re-generating
	// the table with a different seed while the model keeps its old
	// weights). Observed truths now diverge from the model's world.
	shifted, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 10000, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	driftWL, err := workload.Generate(shifted, workload.Config{
		Count: 400, Seed: 6, MinPreds: 1, MaxPreds: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, lq := range driftWL.Queries {
		adaptive.Observe(lq.Query, lq.Sel)
		if adaptive.Drifted() {
			fmt.Printf("drift detected after %d shifted queries (stat %.2f) — recalibrate or retrain\n",
				i+1, adaptive.DriftStatistic())
			break
		}
	}
	if !adaptive.Drifted() {
		fmt.Println("no drift detected (unexpected for this scenario)")
	}
}
