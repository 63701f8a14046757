package cardpi

// Worker-count scaling benchmarks for the sharded batch kernels
// (BENCH_batch_mt.json via `make bench-json`): the same wrappers and
// workload as BenchmarkIntervalBatch, answered at a fixed 1024-query batch
// while par.SetBatchWorkers sweeps W — results are bit-identical at every
// W, so the matrix isolates pure fan-out cost and multi-core speedup.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"cardpi/internal/par"
)

// mtWorkerCounts is the benchmark's W dimension: the fixed 1/2/4 points keep
// the matrix comparable across machines, NumCPU adds the box's natural
// ceiling (deduplicated when it collides with a fixed point).
func mtWorkerCounts() []int {
	ws := []int{1, 2, 4}
	n := runtime.NumCPU()
	for _, w := range ws {
		if w == n {
			return ws
		}
	}
	return append(ws, n)
}

// BenchmarkIntervalBatchMT sweeps the batch worker count over a 1024-query
// Intervals call; ns/query divides whole-batch latency by the batch size, so
// W=k vs W=1 reads off as the multi-core speedup (and, on a single-core box,
// as the fan-out overhead the row-block design keeps within noise).
func BenchmarkIntervalBatchMT(b *testing.B) {
	pis, qs := benchPI.get(b)
	ctx := context.Background()
	defer par.SetBatchWorkers(0)
	const n = 1024
	for _, entry := range pis {
		for _, w := range mtWorkerCounts() {
			b.Run(fmt.Sprintf("%s/n=%d/W=%d", entry.name, n, w), func(b *testing.B) {
				par.SetBatchWorkers(w)
				batch, dst := qs[:n], make([]Interval, n)
				// Warm pooled scratch so steady-state cost is measured.
				if err := entry.pi.Intervals(ctx, batch, dst); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := entry.pi.Intervals(ctx, batch, dst); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/query")
			})
		}
	}
}
