package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cardpi/internal/pipeline"
)

const (
	// setupBoots is how many times an end-to-end run starts the server;
	// setup_s is the median and the last server is measured.
	setupBoots = 5
	// warmup is the unmeasured closed-loop phase before the window, which
	// fills the interval cache and the connection pools.
	warmup = time.Second
	// latencySlices is how many runs of consecutive answers latency_p99_ms
	// takes the median over.
	latencySlices = 10
)

// run is the state of one benchmark run.
type run struct {
	o     options
	w     *workloadSpec
	res   *result
	rep   *replica
	lines []string
	srv   *serverProc
	load  *loader
	// counts from the measured window, kept for the traced replay.
	window     *phaseStats
	p50, p99   float64 // read latency percentiles of the window (windowLatency)
	before     promSample
	after      promSample
	cpuSeconds float64 // the server's CPU time over the window
	// stealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the window.
	stealShare float64
	// rssMB is each server's VmHWM: the stopped boots' after start-up, the
	// measured one's after its window.
	rssMB []float64
	// seeded is the observation count of the measured server before any
	// traffic: the drift monitor's seeding pass over its calibration set,
	// which the recalibration supervisor never sees.
	seeded int
	// probeMs holds the write probe's latencies on workloads without
	// writes in their traffic: probeWrites on each stopped server.
	probeMs []float64
}

// runOnce performs one run of o.workload: build the replica and the query
// universe, boot the server (setupBoots times unless tracing), warm up,
// measure the window, verify, and report either the end-to-end metrics or,
// with -trace 1, the per-layer metrics of the traced replay.
func runOnce(o options) (*result, error) {
	r := &run{o: o, w: workloads[o.workload], res: newResult()}
	r.res.note(environment())
	setup, err := pipeline.Build(serverConfig(r.w))
	if err != nil {
		return nil, fmt.Errorf("build replica: %w", err)
	}
	if r.lines, err = buildUniverse(setup.Table, r.w.universe, o.seed); err != nil {
		return nil, err
	}
	if r.rep, err = newReplica(setup, r.w, r.lines); err != nil {
		return nil, err
	}
	boots := setupBoots
	if o.trace {
		boots = 1
	}
	setups, err := r.boot(boots)
	if err != nil {
		return nil, err
	}
	defer r.srv.stop()
	r.load = newLoader(r.w, r.srv.base, r.lines, o.seed)
	defer r.load.close()
	r.res.note("run: workload=%s seed=%d seconds=%d trace=%t clients=%d",
		o.workload, o.seed, o.seconds, o.trace, len(r.load.clients))

	if err := r.measure(); err != nil {
		return nil, err
	}
	sw, err := r.verify()
	if err != nil {
		return nil, err
	}
	if !o.trace {
		return r.res, r.endToEnd(setups, sw)
	}
	r.srv.stop()
	return r.res, r.perLayer()
}

// boot starts the server n times, keeping the last one running, and
// returns each start-up time in seconds.
func (r *run) boot(n int) ([]float64, error) {
	var setups []float64
	for i := 0; i < n; i++ {
		log := filepath.Join(r.o.outDir, fmt.Sprintf("server-%s-seed%d-%d.log", r.w.name, r.o.seed, i))
		s, err := startServer(r.o.serverBin, r.w.serverArgs, log)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if i == n-1 {
			r.srv = s
			break
		}
		// The peak is read before the probe, whose inserts grow the table.
		rss, err := s.peakRSSMB()
		if err == nil && !r.w.writes {
			var lat []float64
			lat, err = probe(s.base, r.o.seed)
			r.res.attempted += probeWrites
			if err != nil {
				r.res.failed++
			}
			r.probeMs = append(r.probeMs, lat...)
		}
		s.stop()
		if err != nil {
			return nil, err
		}
		r.rssMB = append(r.rssMB, rss)
	}
	return setups, nil
}

// measure runs the warm-up and the measured window, scraping /metrics and
// reading the server's CPU time just before and just after the window.
func (r *run) measure() error {
	monitor := newClient(r.srv.base)
	defer monitor.close()
	var err error
	if r.seeded, err = observed(monitor); err != nil {
		return err
	}
	st, err := r.load.run(warmup, false, false)
	if err != nil {
		return err
	}
	if st.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed, first: %v", st.failed, st.requests, st.errors)
	}
	var watch *swapWatch
	if r.w.recal {
		watch = watchSwaps(newClient(r.srv.base), r.rep.chainName)
		defer watch.finish() // stops the poller on early returns
	}
	if r.before, err = monitor.scrape(); err != nil {
		return err
	}
	cpu0, err := r.srv.cpuSeconds()
	if err != nil {
		return err
	}
	steal0, err := hostSteal()
	if err != nil {
		return err
	}
	if r.window, err = r.load.run(time.Duration(r.o.seconds)*time.Second, r.w.writes, true); err != nil {
		return err
	}
	steal1, err := hostSteal()
	if err != nil {
		return err
	}
	cpu1, err := r.srv.cpuSeconds()
	if err != nil {
		return err
	}
	if r.after, err = monitor.scrape(); err != nil {
		return err
	}
	rss, err := r.srv.peakRSSMB()
	if err != nil {
		return err
	}
	r.rssMB = append(r.rssMB, rss)
	st = r.window
	if r.p50, r.p99, err = windowLatency(st); err != nil {
		return err
	}
	r.cpuSeconds = cpu1 - cpu0
	r.stealShare = (steal1 - steal0) / (st.elapsed.Seconds() * float64(runtime.NumCPU()))
	r.res.attempted += st.requests
	r.res.failed += st.failed
	for _, v := range st.violation {
		r.res.fail("window: %s", v)
	}
	if len(st.errors) > 0 {
		r.res.note("window failures (first %d): %v", len(st.errors), st.errors)
	}
	if st.queries == 0 {
		return fmt.Errorf("no query answered in the window (failures: %v)", st.errors)
	}
	cutoff := time.Now()
	if watch != nil {
		if cutoff, err = watch.finish(); err != nil {
			return fmt.Errorf("watch recalibration swaps: %w", err)
		}
	}
	if err := r.rep.replayWrites(r.o.seed, st.writes); err != nil {
		return err
	}
	checked, bitwise := 0, 0
	for _, s := range st.samples {
		bits := s.recv.Before(cutoff)
		for i, q := range s.qs {
			if err := r.rep.check(q, s.replies[i], s.snapLo, s.snapHi, bits); err != nil {
				r.res.fail("window: %v", err)
				break
			}
			checked++
			if bits {
				bitwise++
			}
		}
	}
	r.res.note("window: %d sampled answers checked against the replica, %d of them bit for bit", checked, bitwise)
	return nil
}

// sweepStats is what the correctness sweep and the write probe measured.
type sweepStats struct {
	coverage float64   // share of the universe whose interval holds the exact count
	width    float64   // mean hi_sel - lo_sel
	writeMs  []float64 // write latencies, sorted, that write_p50_ms is taken from
}

// verify runs the untimed correctness sweep over the whole universe. A
// recalibrating workload first settles its chain.
func (r *run) verify() (*sweepStats, error) {
	k := r.window.writes
	monitor := newClient(r.srv.base)
	defer monitor.close()
	var before recalStatus
	if r.w.recal {
		var err error
		if k, err = r.settle(monitor); err != nil {
			return nil, err
		}
		if before, err = monitor.recal(context.Background()); err != nil {
			return nil, err
		}
	}
	answers, attempted, failed, err := r.load.sweep()
	r.res.attempted += attempted
	r.res.failed += failed
	if err != nil {
		return nil, err
	}
	bits := true
	if r.w.recal {
		after, err := monitor.recal(context.Background())
		if err != nil {
			return nil, err
		}
		if after.Swaps != before.Swaps {
			// The sweep's own observations re-armed the drift alarm and the
			// supervisor swapped again: part of the sweep was answered by a
			// chain the replica does not have.
			bits = false
			r.res.note("sweep: %d recalibration swaps during the sweep; interval bits not compared", after.Swaps-before.Swaps)
		}
	}
	sw, err := scoreSweep(r.rep, answers, k, bits, r.res)
	if err != nil {
		return nil, err
	}
	r.res.note("sweep: %d queries on snapshot %d, interval bits compared: %t", len(answers), k, bits)
	sw.writeMs = r.window.writeMs
	if !r.w.writes {
		sw.writeMs = r.probeMs
	}
	return sw, nil
}

// settle pins the chain a recalibrating workload's sweep is scored on.
// After the window the supervisor's rolling window holds whichever queries
// happened to miss the cache, so the chain it swapped in last differs from
// run to run. settle refills the rolling window with the settle set — a
// fixed sequence of observations in fixed slots: two writes retire every
// cached entry so each query misses and is observed once, and a first run
// of queries pads the observation count to a multiple of the window — and
// then forces one episode on it. Every episode from then on builds the
// same candidate, which the replica rebuilds so that the sweep is checked
// bit for bit. It returns the number of writes the server has applied.
func (r *run) settle(monitor *client) (int, error) {
	ctx := context.Background()
	k := r.window.writes
	if _, err := r.quiesce(monitor); err != nil {
		return 0, err
	}
	total, err := observed(monitor)
	if err != nil {
		return 0, err
	}
	// Every observation since boot went through the supervisor's Record,
	// whether the drift monitor kept it or dropped it.
	total -= r.seeded
	fill := r.rep.settle
	pad := fill[:(recalWindow-total%recalWindow)%recalWindow]
	for _, idx := range [][]int{pad, fill} {
		k++
		if err := r.load.write(k); err != nil {
			return 0, fmt.Errorf("settle: %w", err)
		}
		texts := make([]string, len(idx))
		for i, qi := range idx {
			texts[i] = r.rep.lines[qi]
		}
		answers, errs := r.load.fill(texts)
		r.res.attempted += int64(1 + len(idx))
		if err := r.rep.replayWrites(r.o.seed, k); err != nil {
			return 0, err
		}
		for i, qi := range idx {
			if errs[i] != nil {
				// The server observes a query before it renders the reply,
				// so a failed reply leaves the window slots as planned;
				// the count check below catches one that was never served.
				r.res.failed++
				r.res.note("settle: request for %q failed: %v", r.rep.lines[qi], errs[i])
				continue
			}
			if err := r.rep.check(qi, answers[i], k, k, false); err != nil {
				r.res.fail("settle: %v", err)
			}
		}
	}
	if after, err := observed(monitor); err != nil {
		return 0, err
	} else if after-r.seeded != total+len(pad)+len(fill) {
		return 0, fmt.Errorf("settle: server recorded %d observations, want %d", after-r.seeded, total+len(pad)+len(fill))
	}
	st, err := r.quiesce(monitor)
	if err != nil {
		return 0, err
	}
	r.res.attempted++
	if err := monitor.triggerRecal(ctx); err != nil {
		r.res.failed++
		return 0, err
	}
	for end := time.Now().Add(30 * time.Second); ; {
		now, err := monitor.recal(ctx)
		if err != nil {
			return 0, err
		}
		// An episode counts itself before it turns busy, but makes its
		// attempt while busy: a new attempt and no longer busy means the
		// forced episode is over.
		if now.Attempts > st.Attempts && !now.busy() {
			if now.Swaps == st.Swaps {
				return 0, fmt.Errorf("settle: forced recalibration swapped nothing (reason %q, error %q)", now.LastReason, now.LastError)
			}
			break
		}
		if time.Now().After(end) {
			return 0, fmt.Errorf("settle: forced recalibration episode did not finish in 30s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := r.rep.recalibrate(k); err != nil {
		return 0, err
	}
	r.res.note("settle: %d padding and %d window observations on snapshot %d, forced episode swapped in %s", len(pad), len(fill), k, r.rep.chainName)
	return k, nil
}

// observed is the number of observations the server's drift monitor has
// been fed, kept or dropped.
func observed(monitor *client) (int, error) {
	m, err := monitor.scrape()
	if err != nil {
		return 0, err
	}
	return int(m.sum(obsFamily) + m.sum(droppedFamily)), nil
}

// quiesce waits until no recalibration episode is under way twice in a
// row, 100ms apart, and returns the last status read.
func (r *run) quiesce(monitor *client) (recalStatus, error) {
	end := time.Now().Add(30 * time.Second)
	for idle := 0; ; {
		st, err := monitor.recal(context.Background())
		if err != nil {
			return st, err
		}
		if st.busy() {
			idle = 0
		} else if idle++; idle == 2 {
			return st, nil
		}
		if time.Now().After(end) {
			return st, fmt.Errorf("recalibration supervisor still busy after 30s")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// scoreSweep checks every sweep answer against the replica on snapshot k,
// recording each mismatch in res, and measures coverage and mean width.
func scoreSweep(rep *replica, answers []reply, k int, bits bool, res *result) (*sweepStats, error) {
	covered, width := 0, 0.0
	for qi, a := range answers {
		if err := a.invariants(); err != nil {
			res.fail("sweep: query %q: %v", rep.lines[qi], err)
			continue
		}
		if err := rep.check(qi, a, k, k, bits); err != nil {
			res.fail("sweep: %v", err)
			continue
		}
		truth, err := rep.count(qi, k)
		if err != nil {
			return nil, err
		}
		if t := float64(truth); t >= a.LoRows && t <= a.HiRows {
			covered++
		}
		width += a.HiSel - a.LoSel
	}
	n := float64(len(answers))
	return &sweepStats{coverage: float64(covered) / n, width: width / n}, nil
}

// endToEnd reports the metrics a user of the server sees.
func (r *run) endToEnd(setups []float64, sw *sweepStats) error {
	st := r.window
	if len(sw.writeMs) == 0 {
		return fmt.Errorf("no write completed")
	}
	metrics := []struct {
		name, unit string
		v          float64
	}{
		{"setup_s", "s", median(setups)},
		{"qps", "1/s", float64(st.queries) / st.elapsed.Seconds()},
		{"latency_p50_ms", "ms", r.p50},
		{"failed_share", "ratio", failureUpperBound(r.res.failed, failureRef)},
		{"cpu_ms_per_kq", "ms/kq", 1e6 * r.cpuSeconds / float64(st.queries)},
		{"rss_mb", "MB", median(r.rssMB)},
		{"coverage", "ratio", sw.coverage},
		{"width_sel", "sel", sw.width},
		{"write_p50_ms", "ms", median(sw.writeMs)},
	}
	for _, m := range metrics {
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.v)
		}
		r.res.set(m.name, m.v, m.unit)
	}
	r.res.note("samples: %d requests (%d queries) in %.3fs, %d failed; %d latencies; %d writes; setups %v s; peak RSS %v MB; host steal %.1f%% of CPU",
		st.requests, st.queries, st.elapsed.Seconds(), st.failed, len(st.latMs), len(sw.writeMs), setups, r.rssMB, 100*r.stealShare)
	lat := append([]float64(nil), st.latMs...)
	sort.Float64s(lat)
	if whole, err := percentile(lat, 0.99); err == nil {
		r.res.note("latency: p99 over the whole window %.4g ms, median of the slice p99s %.4g ms (serve.latency_p99_ms with --trace 1)", whole, r.p99)
	}
	return nil
}

// windowLatency returns the p50 of every read latency of the window and
// its p99: the median of the p99s of up to latencySlices runs of
// consecutive answers, in arrival order and of equal count, each with at
// least 100·minBeyond answers. A burst of host load that stalls the
// server for a few hundred milliseconds decides the p99 of the whole
// window, but only that of the slices it falls in.
func windowLatency(st *phaseStats) (p50, p99 float64, err error) {
	lat := append([]float64(nil), st.latMs...)
	sort.Float64s(lat)
	if p50, err = percentile(lat, 0.5); err != nil {
		return 0, 0, err
	}
	n := len(st.latMs)
	k := max(1, min(latencySlices, n/(100*minBeyond)))
	p99s := make([]float64, k)
	for i := range p99s {
		slice := append([]float64(nil), st.latMs[i*n/k:(i+1)*n/k]...)
		sort.Float64s(slice)
		if p99s[i], err = percentile(slice, 0.99); err != nil {
			return 0, 0, err
		}
	}
	return p50, median(p99s), nil
}
