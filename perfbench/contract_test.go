package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the runs must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// fakeWindow is a measured window of 20000 answers with latencies 0 to
// 9.9 ms, each of them 200 times.
func fakeWindow() *phaseStats {
	st := &phaseStats{elapsed: 20 * time.Second, requests: 20000, queries: 20000}
	for i := 0; i < 20000; i++ {
		st.latMs = append(st.latMs, float64(i%100)/10)
	}
	return st
}

// TestMetricsMatchBenchmarkFile checks that both modes print exactly the
// metrics BENCHMARK.json declares, with the same units, and that every
// declared workload exists.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}

	r := &run{o: options{seconds: 20}, w: workloads["hot-zipf-wire"], res: newResult(),
		window: fakeWindow(), p50: 4.9, p99: 9.8, rssMB: []float64{10}, before: promSample{}, after: promSample{}}
	if err := r.endToEnd([]float64{0.3}, &sweepStats{coverage: 0.9, width: 0.01, writeMs: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	var want, units []string
	for _, m := range bf.EndToEnd {
		want, units = append(want, m.Name), append(units, m.Unit)
	}
	check(t, "end_to_end", r.res, want, units)

	r.res = newResult()
	r.layerMetrics(map[string]layerTime{})
	want, units = nil, nil
	for _, m := range bf.PerLayer {
		want, units = append(want, m.Name), append(units, m.Unit)
	}
	check(t, "per_layer", r.res, want, units)
}

func check(t *testing.T, section string, res *result, want, units []string) {
	t.Helper()
	if !slices.Equal(res.names, want) {
		t.Fatalf("%s: printed %v, BENCHMARK.json declares %v", section, res.names, want)
	}
	for i, name := range want {
		if got := res.metrics[name].Unit; got != units[i] {
			t.Errorf("%s: %s printed in %q, declared in %q", section, name, got, units[i])
		}
	}
}
