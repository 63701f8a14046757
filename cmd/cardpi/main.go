// Command cardpi is an interactive demo of prediction intervals for
// cardinality estimation: it generates a synthetic dataset, trains a chosen
// estimator, calibrates a chosen PI wrapper, and answers SQL-ish COUNT(*)
// queries with a point estimate, a prediction interval, and the ground
// truth.
//
//	cardpi -dataset dmv -model spn -method lw-s-cp \
//	    "state = 3 AND county = 17" \
//	    "model_year BETWEEN 60 AND 80"
//
// With no query arguments it reads one query per line from stdin.
//
// Not every method works with every model: cqr retrains the model family
// with a pinball loss, so it needs a trainable supervised model (mscn or
// lwnn); the other methods (s-cp, lw-s-cp, lcp, mondrian) wrap any model.
// Invalid combinations fail fast with an explanation before any training
// starts.
//
// The train/inspect/serve subcommands split the lifecycle: train freezes a
// trained estimator plus its calibration state into a versioned artifact
// bundle, inspect prints an artifact's provenance manifest, and serve
// answers queries over HTTP — either training in-process (the original
// behavior) or loading an artifact and skipping every training step:
//
//	cardpi train -dataset dmv -model spn -method s-cp -out model.cpi
//	cardpi inspect model.cpi
//	cardpi serve -addr :8080 -artifact model.cpi
//	curl 'localhost:8080/estimate?q=state+%3D+3'
//	curl localhost:8080/metrics
//
// The synth subcommand replaces manual model/method picking with a
// budget-aware meta-search: it tries every valid combo (plus a small
// hyperparameter lattice) against the described workload, scores candidates
// on held-out coverage/width, and emits the winning bundle alongside a
// leaderboard that inspect can render:
//
//	cardpi synth -dataset census -budget-artifact-bytes 262144 -out best.cpi
//	cardpi inspect best.cpi.leaderboard.json
//
// See DESIGN.md for the artifact format and OBSERVABILITY.md for the
// metrics.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"cardpi"
	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/histogram"
	"cardpi/internal/pipeline"
	"cardpi/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		sub := os.Args[1]
		run := map[string]func([]string) error{
			"serve":   runServe,
			"train":   runTrain,
			"synth":   runSynth,
			"inspect": runInspect,
			"batch":   runBatch,
			"loadgen": runLoadgen,
		}[sub]
		if run != nil {
			if err := run(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "cardpi %s: %v\n", sub, err)
				os.Exit(1)
			}
			return
		}
	}

	var (
		dsName  = flag.String("dataset", "dmv", "dataset: dmv | census | forest | power (or job | dsb with -join)")
		rows    = flag.Int("rows", 20000, "dataset rows")
		model   = flag.String("model", "spn", pipeline.ModelFlagHelp())
		method  = flag.String("method", "s-cp", pipeline.MethodFlagHelp())
		alpha   = flag.Float64("alpha", 0.1, "miscoverage level (coverage = 1-alpha)")
		queries = flag.Int("queries", 2000, "training+calibration workload size")
		seed    = flag.Int64("seed", 1, "random seed")
		join    = flag.Bool("join", false, "multi-table mode: SPJ queries over a star schema (histogram estimator, Mondrian PI)")
		csvPath = flag.String("csv", "", "load the table from a CSV file instead of generating one (string columns are dictionary-encoded; use 'value' literals in queries)")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: %s [flags] [\"query\" ...]\n", os.Args[0])
		fmt.Fprintf(out, "       %s train [flags] -out model.cpi    (run 'cardpi train -h')\n", os.Args[0])
		fmt.Fprintf(out, "       %s inspect model.cpi               (run 'cardpi inspect -h')\n", os.Args[0])
		fmt.Fprintf(out, "       %s serve [flags]                   (run 'cardpi serve -h')\n", os.Args[0])
		fmt.Fprintf(out, "       %s batch [flags] \"query\" ...        (run 'cardpi batch -h')\n\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(out, "\n%s\n", pipeline.ComboHelp())
	}
	flag.Parse()

	var err error
	if *join {
		err = runJoins(*dsName, *alpha, *rows, *queries, *seed, flag.Args())
	} else {
		err = run(pipeline.Config{
			Dataset: *dsName, CSVPath: *csvPath, Model: *model, Method: *method,
			Alpha: *alpha, Rows: *rows, Queries: *queries, Seed: *seed,
			Logf: logStderr,
		}, flag.Args())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cardpi: %v\n", err)
		os.Exit(1)
	}
}

// logStderr is the pipeline progress logger of every subcommand.
func logStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// runJoins answers SPJ COUNT(*) queries over a star schema with
// per-template (Mondrian) prediction intervals around the traditional
// histogram estimator.
func runJoins(dsName string, alpha float64, rows, queries int, seed int64, args []string) error {
	gen := map[string]func(dataset.GenConfig) (*dataset.Schema, error){
		"job": dataset.GenerateJOB, "dsb": dataset.GenerateDSB,
	}[strings.ToLower(dsName)]
	if gen == nil {
		return fmt.Errorf("join mode needs -dataset job or dsb, got %q", dsName)
	}
	fmt.Fprintf(os.Stderr, "generating %s schema (%d center rows)...\n", dsName, rows)
	sch, err := gen(dataset.GenConfig{Rows: rows, Seed: seed})
	if err != nil {
		return err
	}
	wl, err := workload.GenerateJoins(sch, workload.JoinConfig{
		Count: queries, MaxJoinTables: 4, Seed: seed + 1,
	})
	if err != nil {
		return err
	}
	m := histogram.NewSchema(sch, histogram.Config{})
	fmt.Fprintf(os.Stderr, "calibrating per-template PIs at coverage %.2f...\n", 1-alpha)
	// Join selectivities span orders of magnitude, so the multiplicative
	// (q-error) score gives far more informative intervals than the
	// additive residual score.
	pi, err := cardpi.WrapMondrian(m, wl, cardpi.TemplateGroup, conformal.QErrorScore{}, alpha, 10)
	if err != nil {
		return err
	}

	answer := func(line string) {
		q, err := workload.ParseJoinQuery(sch, line)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		iv, err := cardpi.IntervalCtx(context.Background(), pi, q)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		truth, err := sch.JoinCount(*q.Join)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		norm, err := sch.MaxJoinCount(q.Join.Tables)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		cardIv := cardpi.CardinalityInterval(iv, norm)
		est := m.EstimateSelectivity(q) * float64(norm)
		covered := "MISS"
		if cardIv.Contains(float64(truth)) {
			covered = "ok"
		}
		fmt.Printf("%-70s est=%10.0f  PI=[%10.0f, %10.0f]  true=%10d  %s\n",
			line, est, cardIv.Lo, cardIv.Hi, truth, covered)
	}
	if len(args) > 0 {
		for _, q := range args {
			answer(q)
		}
		return nil
	}
	fmt.Fprintln(os.Stderr, "enter one SPJ query per line (e.g. \"SELECT COUNT(*) FROM title, cast_info WHERE kind_id = 1\"); ctrl-D to exit")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		answer(line)
	}
	return sc.Err()
}

// run is the interactive single-table demo loop around a freshly built
// pipeline setup.
func run(cfg pipeline.Config, args []string) error {
	s, err := pipeline.Build(cfg)
	if err != nil {
		return err
	}
	tab, m, pi := s.Table, s.Model, s.PI

	answer := func(line string) {
		q, err := workload.ParseQuery(tab, line)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		iv, err := cardpi.IntervalCtx(context.Background(), pi, q)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		truth, err := tab.Count(q.Preds)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		n := int64(tab.NumRows())
		cardIv := cardpi.CardinalityInterval(iv, n)
		est := m.EstimateSelectivity(q) * float64(n)
		covered := "MISS"
		if cardIv.Contains(float64(truth)) {
			covered = "ok"
		}
		fmt.Printf("%-50s est=%8.0f  PI=[%8.0f, %8.0f]  true=%8d  %s\n",
			line, est, cardIv.Lo, cardIv.Hi, truth, covered)
	}

	if len(args) > 0 {
		for _, q := range args {
			answer(q)
		}
		return nil
	}
	fmt.Fprintln(os.Stderr, "enter one query per line (e.g. \"state = 3 AND county = 17\"); ctrl-D to exit")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		answer(line)
	}
	return sc.Err()
}
