package cardpi

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cardpi/internal/cache"
	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// countingPI wraps a PI and counts the queries it is asked to answer,
// optionally holding each call open on a gate so concurrency tests can pin
// the flight state.
type countingPI struct {
	inner PI
	calls atomic.Int64
	gate  chan struct{} // nil = unblocked
}

func (c *countingPI) Name() string { return c.inner.Name() }

func (c *countingPI) Intervals(ctx context.Context, qs []workload.Query, dst []Interval) error {
	c.calls.Add(int64(len(qs)))
	if c.gate != nil {
		<-c.gate
	}
	return c.inner.Intervals(ctx, qs, dst)
}

func newCachedFixture(t *testing.T) (*countingPI, *Cached, *workload.Workload) {
	t.Helper()
	model, _, _, cal, test := fixture(t)
	pi, err := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingPI{inner: pi}
	cached, err := NewCached(counting, CacheConfig{Entries: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return counting, cached, test
}

// TestCachedBitIdentity: for every test query, the cached wrapper's first
// (miss) and second (hit) answers are bit-identical to the bare PI on the
// query's canonical form — which is the query itself for anything the
// serve parser emits (parser output is canonical; see canonical_test.go).
func TestCachedBitIdentity(t *testing.T) {
	counting, cached, test := newCachedFixture(t)
	for _, lq := range test.Queries {
		want, err := referenceInterval(counting.inner, workload.Canonicalize(lq.Query))
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := interval(cached, lq.Query)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Lo) != math.Float64bits(want.Lo) ||
				math.Float64bits(got.Hi) != math.Float64bits(want.Hi) {
				t.Fatalf("pass %d: cached %v != uncached %v for %v", pass, got, want, lq.Query.Preds)
			}
		}
	}
	n := int64(len(test.Queries))
	if got := counting.calls.Load(); got != n { // one miss per query, hits free
		t.Fatalf("underlying calls = %d, want %d (hits must not re-invoke)", got, n)
	}
}

// TestCachedCanonicalVariantsShareEntry: syntactic variants of one query
// cost one underlying call and return identical bits.
func TestCachedCanonicalVariantsShareEntry(t *testing.T) {
	counting, cached, _ := newCachedFixture(t)
	eqp := func(col string, v int64) dataset.Predicate {
		return dataset.Predicate{Col: col, Op: dataset.OpEq, Lo: v}
	}
	rngp := func(col string, lo, hi int64) dataset.Predicate {
		return dataset.Predicate{Col: col, Op: dataset.OpRange, Lo: lo, Hi: hi}
	}
	variants := []workload.Query{
		{Preds: []dataset.Predicate{eqp("state", 3), rngp("model_year", 10, 40)}},
		{Preds: []dataset.Predicate{rngp("model_year", 10, 40), eqp("state", 3)}},
		{Preds: []dataset.Predicate{rngp("model_year", 10, 40), rngp("state", 3, 3)}},
		{Preds: []dataset.Predicate{rngp("model_year", 0, 40), rngp("model_year", 10, 90), eqp("state", 3)}},
	}
	var first Interval
	for i, q := range variants {
		iv, err := interval(cached, q)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = iv
			continue
		}
		if math.Float64bits(iv.Lo) != math.Float64bits(first.Lo) ||
			math.Float64bits(iv.Hi) != math.Float64bits(first.Hi) {
			t.Fatalf("variant %d returned %v, want %v", i, iv, first)
		}
	}
	if got := counting.calls.Load(); got != 1 {
		t.Fatalf("underlying calls = %d, want 1 (variants must share the entry)", got)
	}
}

// TestCachedSingleflight: N concurrent misses on one key execute exactly
// one underlying Intervals call.
func TestCachedSingleflight(t *testing.T) {
	counting, cached, test := newCachedFixture(t)
	counting.gate = make(chan struct{})
	q := test.Queries[0].Query
	const n = 12
	var wg sync.WaitGroup
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			if _, err := interval(cached, q); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	// Wait until the leader is parked on the gate and every follower is
	// provably blocked on its flight, then release — "exactly one
	// underlying call" becomes deterministic, not a scheduling accident.
	k := cache.KeyOf(q)
	for counting.calls.Load() == 0 || cached.c.Waiters(k) != n-1 {
		runtime.Gosched()
	}
	close(counting.gate)
	wg.Wait()
	if got := counting.calls.Load(); got != 1 {
		t.Fatalf("underlying calls = %d, want 1", got)
	}
}

// TestCachedBatchMissCoalescing: a batch probes per element and computes
// only the misses; batch answers are bit-identical to sequential ones.
func TestCachedBatchMissCoalescing(t *testing.T) {
	counting, cached, test := newCachedFixture(t)
	qs := make([]workload.Query, 0, 16)
	for _, lq := range test.Queries[:8] {
		qs = append(qs, lq.Query)
	}
	// Warm the first half through the single path.
	for _, q := range qs[:4] {
		if _, err := interval(cached, q); err != nil {
			t.Fatal(err)
		}
	}
	warmCalls := counting.calls.Load()
	got, err := batchIntervals(cached, qs)
	if err != nil {
		t.Fatal(err)
	}
	if miss := counting.calls.Load() - warmCalls; miss != 4 {
		t.Fatalf("batch recomputed %d queries, want the 4 cold ones only", miss)
	}
	for i, q := range qs {
		want, err := referenceInterval(counting.inner, q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i].Lo) != math.Float64bits(want.Lo) ||
			math.Float64bits(got[i].Hi) != math.Float64bits(want.Hi) {
			t.Fatalf("batch element %d: %v != %v", i, got[i], want)
		}
	}
	// A fully warm batch performs no underlying calls and bounded allocs.
	calls := counting.calls.Load()
	if _, err := batchIntervals(cached, qs); err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != calls {
		t.Fatal("warm batch re-invoked the underlying PI")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := batchIntervals(cached, qs); err != nil {
			panic(err)
		}
	})
	// One result-slice allocation; a small constant budget guards against
	// accidental per-element allocations creeping in.
	if allocs > 4 {
		t.Fatalf("warm batch allocates %v times per run; want <= 4", allocs)
	}
}

// TestCachedHitZeroAllocs pins the zero-allocation steady state of a hit.
func TestCachedHitZeroAllocs(t *testing.T) {
	_, cached, test := newCachedFixture(t)
	q := test.Queries[0].Query
	if _, err := interval(cached, q); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := interval(cached, q); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Fatalf("cache hit allocates %v times per run; want 0", n)
	}
}

// TestCachedInvalidate: a bump forces recomputation; entries filled under
// the old epoch are unreachable.
func TestCachedInvalidate(t *testing.T) {
	counting, cached, test := newCachedFixture(t)
	q := test.Queries[0].Query
	if _, err := interval(cached, q); err != nil {
		t.Fatal(err)
	}
	if _, err := interval(cached, q); err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != 1 {
		t.Fatalf("calls = %d before invalidate, want 1", counting.calls.Load())
	}
	cached.Invalidate()
	if _, err := interval(cached, q); err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != 2 {
		t.Fatalf("calls = %d after invalidate, want 2 (must recompute)", counting.calls.Load())
	}
}

// TestCachedMetrics wires a registry through and checks the families move.
func TestCachedMetrics(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	pi, err := WrapSplitCP(model, cal, conformal.ResidualScore{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cached, err := NewCached(pi, CacheConfig{Entries: 128, Metrics: reg, Label: "test"})
	if err != nil {
		t.Fatal(err)
	}
	q := test.Queries[0].Query
	for i := 0; i < 3; i++ {
		if _, err := interval(cached, q); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	w := &sliceWriter{b: &buf}
	if err := reg.WritePrometheus(w); err != nil {
		t.Fatal(err)
	}
	out := string(buf)
	for _, want := range []string{
		`cardpi_cache_hits_total{cache="test"} 2`,
		`cardpi_cache_misses_total{cache="test"} 1`,
		`cardpi_cache_size{cache="test"} 1`,
	} {
		if !containsLine(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

type sliceWriter struct{ b *[]byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

func containsLine(s, line string) bool {
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		if s[:i] == line {
			return true
		}
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return false
}
