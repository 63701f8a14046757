package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"cardpi/internal/codec"
	"cardpi/internal/pipeline"
	"cardpi/internal/workload"
)

// buildCandidates is how many traced BuildCandidate calls recal.build_ms
// averages, after the replay has filled the supervisor's window.
const buildCandidates = 3

// tracedSetup runs the server's build through the pipeline.Graph stage
// methods, one span per stage, and returns the setup they produce — the
// same one pipeline.Build returns.
func tracedSetup(tr *tracer, cfg pipeline.Config) (*pipeline.Setup, error) {
	g := pipeline.NewGraph()
	sp := tr.begin("pipeline.Graph.Table")
	tab, err := g.Table(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("pipeline.Graph.Workloads")
	train, cal, err := g.Workloads(cfg, tab)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("pipeline.Graph.Features")
	_, err = g.Features(cfg, tab)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("pipeline.Graph.Model")
	m, err := g.Model(cfg, tab, train)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("pipeline.Graph.PI")
	pi, err := g.PI(cfg, m, tab, train, cal)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &pipeline.Setup{Table: tab, Model: m, PI: pi, Train: train, Cal: cal}, nil
}

// replayer feeds one unit the workload's request stream: the same
// per-client popularity draws as the end-to-end run, taken round-robin
// across clients, with writes spaced at the density the window measured.
type replayer struct {
	w     *workloadSpec
	lines []string
	qs    []workload.Query // lines parsed against the base table
	seed  int64
	picks []func() int
	// writeEvery is the number of read queries between writes; 0 = none.
	writeEvery int
	writes     int
}

func newReplayer(w *workloadSpec, lines []string, qs []workload.Query, seed int64, clients, writeEvery int) *replayer {
	rp := &replayer{w: w, lines: lines, qs: qs, seed: seed, writeEvery: writeEvery}
	for c := 0; c < clients; c++ {
		rp.picks = append(rp.picks, w.picker(seed, c, len(lines)))
	}
	return rp
}

// run replays n read queries (rounded up to whole requests) against u,
// with writes when withWrites is set, and returns the wall time.
func (rp *replayer) run(u *unit, n int, withWrites bool) (time.Duration, error) {
	ctx := context.Background()
	w := rp.w
	size := max(w.batch, 1)
	texts := make([]string, size)
	var body []byte
	start := time.Now()
	for done, req := 0, 0; done < n; req++ {
		pick := rp.picks[req%len(rp.picks)]
		for i := range texts {
			texts[i] = rp.lines[pick()]
		}
		var err error
		if w.batch == 0 {
			err = u.serveSingle(ctx, texts[0])
		} else {
			if w.wire {
				body = codec.AppendWireRequest(body[:0], texts)
			}
			err = u.serveBatch(ctx, texts, body, w.wire)
		}
		if err != nil {
			return 0, err
		}
		before := done
		done += size
		if withWrites && rp.writeEvery > 0 && done/rp.writeEvery > before/rp.writeEvery {
			rp.writes++
			if err := u.write(writeSeed(rp.seed, rp.writes)); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// obsFamily counts the observations the drift monitor has absorbed and
// droppedFamily those it dropped as non-finite.
const (
	obsFamily     = "cardpi_adaptive_observations_total"
	droppedFamily = "cardpi_adaptive_dropped_observations_total"
)

// age feeds the unit's drift monitor the stream's next queries, with their
// exact selectivities, until it has absorbed target observations. The
// monitor's exchangeability test keeps every score it has seen and scans
// them on each observation, so its cost grows with its age; aging the
// replay's monitor to the server's state at mid-window makes the traced
// observe cost the one the server paid, without replaying every request.
func (rp *replayer) age(u *unit, target int64) error {
	var buf bytes.Buffer
	if err := u.reg.WritePrometheus(&buf); err != nil {
		return err
	}
	m, err := parseProm(buf.String())
	if err != nil {
		return err
	}
	tab := u.tab.Load()
	n := float64(tab.NumRows())
	counts := map[int]int64{}
	for have, req := int64(m.sum(obsFamily)), 0; have < target; req++ {
		qi := rp.picks[req%len(rp.picks)]()
		c, ok := counts[qi]
		if !ok {
			if c, err = tab.Count(rp.qs[qi].Preds); err != nil {
				return err
			}
			counts[qi] = c
		}
		u.adaptive.Observe(rp.qs[qi], float64(c)/n)
		have++
	}
	return nil
}

// replayUnit builds a unit with its recalibration supervisor running, as
// the server runs it, warms it with one untimed stretch of the stream,
// ages its drift monitor to the server's mid-window state, and replays the
// next stretch. It returns the unit (supervisor stopped) and the wall time
// of the replayed stretch.
func (r *run) replayUnit(s *pipeline.Setup, tr *tracer, writeEvery int) (*unit, time.Duration, error) {
	u, err := newUnit(s, r.w)
	if err != nil {
		return nil, 0, err
	}
	if u.sup != nil {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			u.sup.Run(ctx)
		}()
		defer func() {
			cancel()
			<-done
		}()
	}
	rp := newReplayer(r.w, r.lines, r.rep.qs, r.o.seed, len(r.load.clients), writeEvery)
	if _, err := rp.run(u, r.w.replayQueries, false); err != nil {
		return nil, 0, err
	}
	mid := (r.before.sum(obsFamily) + r.after.sum(obsFamily)) / 2
	if err := rp.age(u, int64(mid)); err != nil {
		return nil, 0, err
	}
	u.tr = tr
	wall, err := rp.run(u, r.w.replayQueries, true)
	if err != nil {
		return nil, 0, err
	}
	return u, wall, nil
}

// perLayer runs the traced setup and the traced replay, writes the span
// file, and reports the per-layer metrics: self times per query from the
// replay, counts from the /metrics deltas of the end-to-end window.
func (r *run) perLayer() error {
	// Room for every span of the replay: a read query makes at most about
	// eight, so the span slice never grows while it is timed.
	tr := newTracer(8*r.w.replayQueries + 4096)
	setup, err := tracedSetup(tr, serverConfig(r.w))
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	writeEvery := 0
	if r.w.writes && r.window.writes > 0 {
		writeEvery = max(1, int(r.window.queries)/r.window.writes)
		// Keep at least one write inside the replayed stretch.
		writeEvery = min(writeEvery, r.w.replayQueries)
	}
	_, plain, err := r.replayUnit(setup, nil, writeEvery)
	if err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	u, traced, err := r.replayUnit(setup, tr, writeEvery)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	for b := 1; b < setupBoots && !r.w.writes; b++ {
		// The end-to-end run probes writes on each idle server it only
		// boots; the replay probes them on as many fresh units.
		pu, err := newUnit(setup, r.w)
		if err != nil {
			return err
		}
		pu.tr = tr
		for k := 1; k <= probeWrites; k++ {
			if err := pu.write(writeSeed(r.o.seed, k)); err != nil {
				return err
			}
		}
	}
	if u.sup != nil {
		for i := 0; i < buildCandidates; i++ {
			sp := tr.begin(spanBuild)
			_, err := u.sup.BuildCandidate()
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("build recalibration candidate: %w", err)
			}
		}
	}
	path := filepath.Join(r.o.outDir, fmt.Sprintf("spans-%s-seed%d.tsv.gz", r.w.name, r.o.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	overhead := traced.Seconds()/plain.Seconds() - 1
	r.res.note("trace: %d spans in %s; replay %d queries: traced %.3fs, untraced %.3fs, tracing overhead %.1f%%",
		len(tr.spans), path, r.w.replayQueries, traced.Seconds(), plain.Seconds(), 100*overhead)
	r.layerMetrics(aggregate(tr.spans))
	return nil
}

// layerMetrics turns the span aggregate and the window's /metrics deltas
// into the per-layer metrics, in the order BENCHMARK.json lists them.
func (r *run) layerMetrics(agg map[string]layerTime) {
	res := r.res
	q := float64(r.w.replayQueries)
	selfUs := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += agg[n].self
		}
		return float64(ns) / 1e3 / q
	}
	meanTotal := func(name string, unit time.Duration) float64 {
		lt := agg[name]
		if lt.calls == 0 {
			return 0
		}
		return float64(lt.total) / float64(lt.calls) / float64(unit)
	}
	d := func(family string, labels ...string) float64 { return delta(r.before, r.after, family, labels...) }
	served := d("cardpi_serve_requests_total", `class="ok"`) + d("cardpi_serve_batch_size_sum")

	for _, st := range []struct{ metric, span string }{
		{"pipeline.table_s", "pipeline.Graph.Table"},
		{"pipeline.workload_s", "pipeline.Graph.Workloads"},
		{"pipeline.featurize_s", "pipeline.Graph.Features"},
		{"pipeline.train_s", "pipeline.Graph.Model"},
		{"pipeline.calibrate_s", "pipeline.Graph.PI"},
	} {
		res.set(st.metric, meanTotal(st.span, time.Second), "s")
	}
	res.set("workload.parse_us", selfUs(spanParse), "us")
	res.set("cache.key_us", selfUs(spanKey), "us")
	res.set("cache.get_us", selfUs(spanGet), "us")
	hits, misses := d("cardpi_cache_hits_total"), d("cardpi_cache_misses_total")
	res.set("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	res.set("cache.coalesced", d("cardpi_cache_coalesced_total"), "count")
	res.set("cache.invalidations", d("cardpi_cache_epoch_invalidations_total"), "count")
	res.set("cache.evictions", d("cardpi_cache_evictions_total"), "count")
	res.set("codec.wire_us", selfUs(spanDecode, spanEncode), "us")
	res.set("adaptive.read_us", selfUs(spanDrifted, spanRollCov), "us")
	res.set("cardpi.chain_us", selfUs(spanChain), "us")
	res.set("cardpi.pi_calls_per_query", ratio(d("cardpi_pi_calls_total"), served), "1/query")
	all := d("cardpi_resilient_served_total")
	res.set("cardpi.fallback_share", ratio(all-d("cardpi_resilient_served_total", `stage="0"`), all), "ratio")
	res.set("cardpi.chain_batch_us", selfUs(spanChainBatch), "us")
	res.set("par.tasks_per_batch", ratio(d("cardpi_par_tasks_total"), d("cardpi_serve_batch_requests_total", `class="ok"`)), "1/batch")
	res.set("estimator.point_us", selfUs(spanPoint), "us")
	res.set("dataset.count_us", selfUs(spanCount), "us")
	res.set("adaptive.observe_us", selfUs(spanObserve), "us")
	res.set("adaptive.observations_per_query", ratio(d("cardpi_adaptive_observations_total"), served), "1/query")
	res.set("adaptive.dropped", d(droppedFamily), "count")
	res.set("recal.record_us", selfUs(spanRecord), "us")
	res.set("recal.build_ms", meanTotal(spanBuild, time.Millisecond), "ms")
	res.set("recal.attempts", d("cardpi_recal_attempts_total"), "count")
	res.set("recal.swaps", d("cardpi_recal_success_total"), "count")
	res.set("scenario.write_ms", meanTotal(spanWrite, time.Millisecond), "ms")

	// Every span on the read path counts towards the traced total; the
	// request roots, writes and candidate builds do not.
	readPath := []string{spanDecode, spanParse, spanKey, spanGet, spanDo, spanPut, spanChain, spanChainBatch,
		spanCount, spanObserve, spanRecord, spanDrifted, spanRollCov, spanPoint, spanEncode}
	tracedUs := selfUs(readPath...)
	cpuUs := 1e6 * r.cpuSeconds / served
	res.set("serve.residual_us", cpuUs-tracedUs, "us")
	res.set("serve.shed", d("cardpi_serve_shed_total"), "count")
	res.set("serve.latency_p99_ms", r.p99, "ms")

	res.note("trace: server CPU %.3f us/query over %.0f queries; traced layer self time %.3f us/query", cpuUs, served, tracedUs)
	r.premises(agg, readPath, tracedUs)
}

// premises prints whether the traced run confirms the reason the workload
// was chosen (see README.md). They describe the program, not the
// benchmark, so they are notes and do not affect the verdict.
func (r *run) premises(agg map[string]layerTime, readPath []string, tracedUs float64) {
	m := func(name string) float64 { return r.res.metrics[name].Value }
	var verdict string
	switch r.w.name {
	case "hot-zipf-wire":
		names := append([]string(nil), readPath...)
		sort.Slice(names, func(a, b int) bool { return agg[names[a]].self > agg[names[b]].self })
		verdict = fmt.Sprintf("largest per-query self time is %s (want %s)", names[0], spanParse)
	case "cold-single-lcp":
		share := (m("cardpi.chain_us") + m("dataset.count_us")) / tracedUs
		verdict = fmt.Sprintf("chain + count are %.1f%% of the traced total (want > 50%%)", 100*share)
	case "drift-batch":
		verdict = fmt.Sprintf("%.0f invalidations for %d writes (want >= 1 per write), %.0f swaps (want >= 1)",
			m("cache.invalidations"), r.window.writes, m("recal.swaps"))
	}
	r.res.note("premise: %s; serve.residual_us %.3f (want >= 0)", verdict, m("serve.residual_us"))
}
