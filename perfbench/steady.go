package main

import (
	"fmt"
	"os"
	"strings"
)

// runSteady runs the workload o.steady times with seeds o.seed, o.seed+1,
// ..., then once traced, and prints for every end-to-end metric the median,
// quartiles, extremes and the interquartile spread as a share of the
// median — the figure BENCHMARK.json's bounds are set against — followed
// by the tracing overhead of the traced run.
func runSteady(o options) error {
	values := map[string][]float64{}
	var names []string
	units := map[string]string{}
	for i := 0; i < o.steady; i++ {
		ro := o
		ro.seed = o.seed + int64(i)
		ro.steady, ro.trace = 0, false
		res, err := runOnce(ro)
		if err != nil {
			return fmt.Errorf("seed %d: %w", ro.seed, err)
		}
		if err := saveRecord(ro, res); err != nil {
			return err
		}
		if !res.correct {
			return fmt.Errorf("seed %d: wrong answers: %v", ro.seed, res.problems)
		}
		if i == 0 {
			fmt.Println(res.notes[0])
			names = res.names
		}
		for _, n := range res.names {
			values[n] = append(values[n], res.metrics[n].Value)
			units[n] = res.metrics[n].Unit
		}
		fmt.Fprintf(os.Stderr, "steady: run %d/%d (seed %d) done\n", i+1, o.steady, ro.seed)
	}
	fmt.Printf("steadiness of %s over %d runs (seeds %d..%d, %ds windows):\n",
		o.workload, o.steady, o.seed, o.seed+int64(o.steady)-1, o.seconds)
	fmt.Printf("%-16s %12s %12s %12s %12s %12s %8s  %s\n", "metric", "median", "q1", "q3", "min", "max", "spread", "unit")
	for _, n := range names {
		v := values[n]
		q1, q2, q3 := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Printf("%-16s %12.6g %12.6g %12.6g %12.6g %12.6g %7.2f%%  %s\n", n, q2, q1, q3, lo, hi, 100*ratio(q3-q1, q2), units[n])
	}
	ro := o
	ro.steady, ro.trace = 0, true
	res, err := runOnce(ro)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	if err := saveRecord(ro, res); err != nil {
		return err
	}
	for _, n := range res.notes {
		if strings.HasPrefix(n, "trace:") || strings.HasPrefix(n, "premise:") {
			fmt.Println(n)
		}
	}
	return nil
}
