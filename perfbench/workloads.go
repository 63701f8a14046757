package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"cardpi/internal/dataset"
	"cardpi/internal/workload"
)

// The server configuration every workload shares: the dmv table at 20k
// rows, the server's default training workload size and miscoverage, and a
// fixed server seed. Only the query universe, the popularity draws and the
// write seeds follow the benchmark's -seed, so the served model is the same
// in every run and run-to-run spread comes from the traffic alone.
const (
	serverDataset = "dmv"
	serverRows    = 20000
	serverQueries = 2000
	serverAlpha   = 0.1
	serverSeed    = 1
	// serverWindow and recalWindow are the server's default monitor and
	// recalibration window sizes; the replica and the replay's in-process
	// unit mirror them. A workload with recalibration on runs the supervisor
	// with recalMaxAttempts attempts per drift episode: a rejected candidate
	// then ends its episode at once instead of backing off for seconds, so
	// the settle phase finds the supervisor idle soon after traffic stops.
	serverWindow     = 2000
	recalWindow      = 1024
	recalMaxAttempts = 1
)

// Traffic shapes.
const (
	zipfS = 1.1
	// insertRows is the size of every /admin/scenario insert.
	insertRows = 500
	// A workload without writes in its traffic sends probeWrites sequential
	// inserts to each idle server it boots only to time start-up, so that
	// write_p50_ms is measured on every workload. Spreading the probe over
	// the boots keeps the table small (20k to 39k rows) and a burst of host
	// load from landing on every write of the run.
	probeWrites = 38
	// failureRef is the fixed request count failed_share is taken over (see
	// failureUpperBound): fewer than any workload attempts in a 30 s window,
	// so the figure moves with failures and not with throughput.
	failureRef = 10000
)

// workloadSpec is one traffic mix against one server configuration.
type workloadSpec struct {
	name   string
	model  string
	method string
	// cacheEntries > 0 turns the server's interval cache on.
	cacheEntries int
	recal        bool
	// universe is the number of distinct queries; zipf picks them by Zipf
	// popularity (s = zipfS), otherwise uniformly.
	universe int
	zipf     bool
	// batch is the number of queries per POST /estimate/batch; 0 sends
	// single GET /estimate requests.
	batch int
	// wire selects the binary batch format instead of JSON.
	wire bool
	// writes sends one /admin/scenario insert per second of the window.
	writes bool
	// replayQueries is the number of read queries the traced replay runs.
	replayQueries int
	// sampleEvery keeps every n-th request's replies for verification
	// after the window.
	sampleEvery int
}

// workloads are chosen so each puts most of its work in different layers;
// README.md gives the reasons in full.
var workloads = map[string]*workloadSpec{
	// Cache hits dominate: request decode, parse, key and probe, the
	// monitor reads of the render, and the binary codec do the work.
	"hot-zipf-wire": {
		name: "hot-zipf-wire", model: "histogram", method: "s-cp",
		cacheEntries: 4096, universe: 1000, zipf: true, batch: 256, wire: true,
		replayQueries: 256 * 256, sampleEvery: 64,
	},
	// Every request runs the whole miss path: lcp chain, second forward
	// pass, exact count, monitor observe, JSON.
	"cold-single-lcp": {
		name: "cold-single-lcp", model: "mscn", method: "lcp",
		universe: 5000, replayQueries: 2000, sampleEvery: 4,
	},
	// Writes bump the cache epoch once a second, so the hot set refills
	// through the batched chain and the oracle on a growing table while the
	// recalibration supervisor refits and swaps the chain; after the window
	// the settle phase pins the chain the sweep scores. The replies are
	// binary: a JSON reply rendered between a swap and the next
	// observation carries a NaN rolling coverage, which the server cannot
	// encode, and arrives as an empty 200 body (README.md, known defects).
	"drift-batch": {
		name: "drift-batch", model: "spn", method: "s-cp",
		cacheEntries: 4096, recal: true, universe: 1000, zipf: true, batch: 64, wire: true,
		writes: true, replayQueries: 2048 * 64, sampleEvery: 16,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// serverArgs is the `cardpi serve` command line for the workload. Every
// workload enables the scenario endpoint: drift-batch writes during the
// window and the settle phase, the others in the write probe.
func (w *workloadSpec) serverArgs(addr string) []string {
	args := []string{"serve", "-addr", addr,
		"-dataset", serverDataset, "-rows", strconv.Itoa(serverRows),
		"-queries", strconv.Itoa(serverQueries), "-alpha", strconv.FormatFloat(serverAlpha, 'g', -1, 64),
		"-seed", strconv.Itoa(serverSeed),
		"-model", w.model, "-method", w.method,
		"-cache-entries", strconv.Itoa(w.cacheEntries),
		"-recal=" + strconv.FormatBool(w.recal),
		"-scenario-admin",
	}
	if w.recal {
		args = append(args, "-recal-max-attempts", strconv.Itoa(recalMaxAttempts))
	}
	return args
}

// buildUniverse renders the workload's distinct queries as text, generated
// over the server's table from the workload seed the same way `cardpi
// loadgen` does. The server only ever sees this text.
func buildUniverse(tab *dataset.Table, n int, seed int64) ([]string, error) {
	wl, err := workload.Generate(tab, workload.Config{Count: n, Seed: seed + 7919, MinPreds: 1, MaxPreds: 3})
	if err != nil {
		return nil, fmt.Errorf("generate universe: %w", err)
	}
	lines := make([]string, 0, len(wl.Queries))
	seen := make(map[string]bool, len(wl.Queries))
	for _, lq := range wl.Queries {
		line := workload.QueryText(lq.Query)
		if line == "" || seen[line] {
			continue
		}
		seen[line] = true
		lines = append(lines, line)
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("universe collapsed to %d distinct queries", len(lines))
	}
	return lines, nil
}

// picker returns client c's query-index sampler for the workload: seeded
// from (seed, c), so the same seed replays the same popularity draws.
func (w *workloadSpec) picker(seed int64, c, universe int) func() int {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(c)*104729))
	if !w.zipf {
		return func() int { return rng.Intn(universe) }
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(universe-1))
	return func() int { return int(z.Uint64()) }
}

// writeSeed is the InsertSkewed seed of the k-th write (1-based) of a run.
func writeSeed(seed int64, k int) int64 { return seed*7907 + int64(k) }
