package main

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	// 1000 samples: p99 is the 990th, with exactly 10 beyond it.
	if got, err := percentile(sorted(1000), 0.99); err != nil || got != 990 {
		t.Fatalf("p99 of 1000 = %v, %v; want 990", got, err)
	}
	// 999 samples leave only 9 beyond the p99.
	if _, err := percentile(sorted(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted with 9 beyond it")
	}
	if got, err := percentile(sorted(21), 0.5); err != nil || got != 11 {
		t.Fatalf("p50 of 21 = %v, %v; want 11", got, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7, 1, 3}, [3]float64{1, 3, 7}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestFailureUpperBound(t *testing.T) {
	zero := failureUpperBound(0, 10000)
	if zero <= 0 || zero > 3.0/10000 {
		t.Fatalf("bound after 0 of 10000 failures = %v, want in (0, 3e-4]", zero)
	}
	if more := failureUpperBound(0, 20000); more >= zero {
		t.Errorf("bound did not tighten with more successes: %v >= %v", more, zero)
	}
	if one := failureUpperBound(1, 10000); one <= zero {
		t.Errorf("bound did not rise with a failure: %v <= %v", one, zero)
	}
	if all := failureUpperBound(10, 10); all != 1 {
		t.Errorf("bound after 10 of 10 failures = %v, want 1", all)
	}
}

const scrapeBefore = `# HELP cardpi_cache_hits_total Interval-cache reads answered from a live entry.
# TYPE cardpi_cache_hits_total counter
cardpi_cache_hits_total{unit="default"} 100
cardpi_cache_hits_total{unit="acme/orders"} 7
cardpi_resilient_served_total{pi="resilient/s-cp/spn",stage="0"} 50
cardpi_resilient_served_total{pi="resilient/s-cp/spn",stage="1"} 2
cardpi_adaptive_width_mean{model="spn"} NaN
cardpi_serve_batch_size_sum 1024
`

const scrapeAfter = `cardpi_cache_hits_total{unit="default"} 350
cardpi_cache_hits_total{unit="acme/orders"} 9
cardpi_resilient_served_total{pi="resilient/s-cp/spn",stage="0"} 80
cardpi_resilient_served_total{pi="resilient/s-cp/spn",stage="1"} 2
cardpi_resilient_served_total{pi="resilient/recal-cp/spn",stage="0"} 20
cardpi_adaptive_width_mean{model="spn"} 0.25
cardpi_serve_batch_size_sum 1.5e+03
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		family string
		labels []string
		want   float64
	}{
		{"cardpi_cache_hits_total", nil, 252},
		{"cardpi_cache_hits_total", []string{`unit="default"`}, 250},
		// A series that appears only after (a swapped-in chain) counts in full.
		{"cardpi_resilient_served_total", nil, 50},
		{"cardpi_resilient_served_total", []string{`stage="0"`}, 50},
		{"cardpi_resilient_served_total", []string{`stage="1"`}, 0},
		{"cardpi_serve_batch_size_sum", nil, 476},
		{"cardpi_missing_total", nil, 0},
	} {
		if got := delta(before, after, tc.family, tc.labels...); got != tc.want {
			t.Errorf("delta(%s, %v) = %v, want %v", tc.family, tc.labels, got, tc.want)
		}
	}
	// NaN gauges are skipped rather than poisoning sums.
	if got := before.sum("cardpi_adaptive_width_mean"); got != 0 || math.IsNaN(got) {
		t.Errorf("sum over a NaN series = %v, want 0", got)
	}
	if _, err := parseProm("cardpi_broken_total\n"); err == nil {
		t.Error("line without a value accepted")
	}
	if _, err := parseProm("cardpi_broken_total abc\n"); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("non-numeric value: err = %v", err)
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (car dpi) (x)) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 9 0 1000 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3.25; got != want {
		t.Fatalf("cpu = %v s, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (cardpi) S 1"); err == nil {
		t.Error("short stat line accepted")
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  693965 0 55424 579990 199 0 10546 17228 0 0\ncpu0 346787 0 28644 289022 168 0 5235 9083 0 0\n"
	got, err := parseSteal(stat)
	if err != nil || got != 172.28 {
		t.Fatalf("steal = %v, %v; want 172.28 s", got, err)
	}
	if _, err := parseSteal("cpu  1 2 3 4\n"); err == nil {
		t.Error("cpu line without a steal field accepted")
	}
}

func TestWindowLatency(t *testing.T) {
	p50, p99, err := windowLatency(fakeWindow())
	if err != nil || p50 != 4.9 || p99 != 9.8 {
		t.Fatalf("p50 %v p99 %v (%v); want 4.9 and 9.8", p50, p99, err)
	}
	// 500 answers leave 5 beyond the p99: too few for a tail.
	small := &phaseStats{latMs: fakeWindow().latMs[:500]}
	if _, _, err := windowLatency(small); err == nil {
		t.Error("p99 over 500 latencies accepted")
	}
	// A stall that slows the last 400 answers (2% of the window) to 50 ms
	// sets the p99 of the whole window, but only that of its own slice.
	st := fakeWindow()
	for i := len(st.latMs) - 400; i < len(st.latMs); i++ {
		st.latMs[i] = 50
	}
	if _, p99, err := windowLatency(st); err != nil || p99 != 9.8 {
		t.Errorf("p99 with a stall in one slice: %v (%v); want 9.8", p99, err)
	}
}

func TestSortByArrival(t *testing.T) {
	// Two clients' latencies, each in its own arrival order.
	st := &phaseStats{
		latMs: []float64{1, 3, 5, 2, 4},
		latAt: []time.Duration{1, 3, 5, 2, 4},
	}
	sortByArrival(st)
	if !slices.Equal(st.latMs, []float64{1, 2, 3, 4, 5}) ||
		!slices.Equal(st.latAt, []time.Duration{1, 2, 3, 4, 5}) {
		t.Errorf("sorted to %v at %v", st.latMs, st.latAt)
	}
}
