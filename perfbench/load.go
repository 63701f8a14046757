package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request's answers kept for verification after the window,
// with the range of table snapshots they may reflect.
type sample struct {
	qs      []int
	replies []reply
	snapLo  int
	snapHi  int
	recv    time.Time
}

// phaseStats is what one closed-loop phase measured.
type phaseStats struct {
	elapsed   time.Duration // until the last answer
	requests  int64         // read and write requests attempted
	failed    int64
	queries   int64           // queries answered
	latMs     []float64       // latency of every answered read request
	latAt     []time.Duration // when each of latMs was received, since the phase start
	writeMs   []float64
	writes    int
	samples   []sample
	errors    []string // first few failures, for the log
	violation []string // answers that broke an invariant
}

func (p *phaseStats) addError(msg string) {
	if len(p.errors) < 5 {
		p.errors = append(p.errors, msg)
	}
}

// loader is the load-generating side of one run: one client and one
// popularity sampler per connection, kept across phases so the draws of
// the window continue those of the warm-up.
type loader struct {
	w       *workloadSpec
	lines   []string
	seed    int64
	clients []*client
	picks   []func() int
}

// newLoader opens nproc connections: the load tracks the machine's core
// count rather than a fixed number.
func newLoader(w *workloadSpec, base string, lines []string, seed int64) *loader {
	l := &loader{w: w, lines: lines, seed: seed}
	for c := 0; c < runtime.NumCPU(); c++ {
		l.clients = append(l.clients, newClient(base))
		l.picks = append(l.picks, w.picker(seed, c, len(lines)))
	}
	return l
}

func (l *loader) close() {
	for _, c := range l.clients {
		c.close()
	}
}

// writeSchedule spaces a phase's inserts one second apart, the k-th due at
// (k - 0.5)s into the window, and lets only one be in flight so the server
// applies them in seed order. started and done bound the snapshots an
// answer may reflect.
type writeSchedule struct {
	start   time.Time
	total   int
	mu      sync.Mutex
	claimed int
	busy    bool
	started atomic.Int64
	done    atomic.Int64
	err     error
}

// claim returns the number of the write this client should send now, or 0.
func (s *writeSchedule) claim(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.claimed + 1
	if s.busy || k > s.total || now.Before(s.start.Add(time.Duration(k)*time.Second-time.Second/2)) {
		return 0
	}
	s.claimed, s.busy = k, true
	s.started.Store(int64(k))
	return k
}

// finish records the outcome of write k; a failed write ends the schedule,
// since the server's table no longer follows a known sequence.
func (s *writeSchedule) finish(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy = false
	if err != nil {
		s.err, s.total = err, s.claimed
		return
	}
	s.done.Add(1)
}

// run drives one closed-loop phase for dur: every client sends its next
// request as soon as the previous one is answered. With writes, one insert
// per second of the phase goes out after a client's current read. With
// record, every sampleEvery-th request's answers are kept.
func (l *loader) run(dur time.Duration, writes, record bool) (*phaseStats, error) {
	start := time.Now()
	deadline := start.Add(dur)
	ws := &writeSchedule{start: start}
	if writes {
		ws.total = int(dur / time.Second)
	}
	perClient := make([]phaseStats, len(l.clients))
	var wg sync.WaitGroup
	for c := range l.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l.clientLoop(c, start, deadline, ws, record, &perClient[c])
		}(c)
	}
	wg.Wait()
	st := &phaseStats{elapsed: time.Since(start), writes: int(ws.done.Load())}
	for i := range perClient {
		p := &perClient[i]
		st.requests += p.requests
		st.failed += p.failed
		st.queries += p.queries
		st.latMs = append(st.latMs, p.latMs...)
		st.latAt = append(st.latAt, p.latAt...)
		st.writeMs = append(st.writeMs, p.writeMs...)
		st.samples = append(st.samples, p.samples...)
		for _, e := range p.errors {
			st.addError(e)
		}
		st.violation = append(st.violation, p.violation...)
	}
	if ws.err != nil {
		st.violation = append(st.violation, fmt.Sprintf("write %d failed, table sequence unknown: %v", ws.claimed, ws.err))
	}
	sortByArrival(st)
	sort.Float64s(st.writeMs)
	return st, nil
}

// sortByArrival puts the read latencies of a phase, gathered client by
// client, in the order their answers arrived.
func sortByArrival(st *phaseStats) {
	idx := make([]int, len(st.latMs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return st.latAt[idx[a]] < st.latAt[idx[b]] })
	lat, at := make([]float64, len(idx)), make([]time.Duration, len(idx))
	for i, j := range idx {
		lat[i], at[i] = st.latMs[j], st.latAt[j]
	}
	st.latMs, st.latAt = lat, at
}

func (l *loader) clientLoop(c int, start, deadline time.Time, ws *writeSchedule, record bool, st *phaseStats) {
	w, cl, pick := l.w, l.clients[c], l.picks[c]
	ctx := context.Background()
	size := max(w.batch, 1)
	qs := make([]int, size)
	texts := make([]string, size)
	var replies []reply
	for n := 0; ; n++ {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		if k := ws.claim(now); k > 0 {
			st.requests++
			t0 := time.Now()
			rows, err := cl.insert(ctx, writeSeed(l.seed, k))
			if err == nil && rows != serverRows+k*insertRows {
				err = fmt.Errorf("table has %d rows after write %d, want %d", rows, k, serverRows+k*insertRows)
			}
			if err != nil {
				st.failed++
				st.addError(err.Error())
			} else {
				st.writeMs = append(st.writeMs, ms(time.Since(t0)))
			}
			ws.finish(err)
		}
		for i := range qs {
			qs[i] = pick()
			texts[i] = l.lines[qs[i]]
		}
		snapLo := int(ws.done.Load())
		t0 := time.Now()
		var err error
		replies, err = cl.estimate(ctx, w, texts, replies[:0])
		recv := time.Now()
		snapHi := int(ws.started.Load())
		st.requests++
		if err != nil {
			st.failed++
			st.addError(err.Error())
			continue
		}
		bad := false
		for i := range replies {
			if err := replies[i].invariants(); err != nil {
				st.violation = append(st.violation, fmt.Sprintf("query %q: %v", texts[i], err))
				bad = true
				break
			}
		}
		if bad {
			st.failed++
			continue
		}
		st.latMs = append(st.latMs, ms(recv.Sub(t0)))
		st.latAt = append(st.latAt, recv.Sub(start))
		st.queries += int64(len(replies))
		if record && n%w.sampleEvery == 0 {
			st.samples = append(st.samples, sample{
				qs: append([]int(nil), qs...), replies: append([]reply(nil), replies...),
				snapLo: snapLo, snapHi: snapHi, recv: recv,
			})
		}
	}
}

// sweep sends every universe query once, split across the clients, and
// returns the answers in universe order. It is untimed.
func (l *loader) sweep() (answers []reply, attempted, failed int64, err error) {
	w := l.w
	size := max(w.batch, 1)
	answers = make([]reply, len(l.lines))
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, cl := range l.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			var out []reply
			for {
				lo := int(next.Add(int64(size))) - size
				if lo >= len(l.lines) {
					return
				}
				hi := min(lo+size, len(l.lines))
				var err error
				out, err = cl.estimate(context.Background(), w, l.lines[lo:hi], out[:0])
				mu.Lock()
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
				} else {
					copy(answers[lo:hi], out)
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, attempted, failed, fmt.Errorf("correctness sweep: %w", firstErr)
	}
	return answers, attempted, failed, nil
}

// probe sends probeWrites sequential inserts to the freshly booted server
// at base and returns their latencies in ms.
func probe(base string, seed int64) ([]float64, error) {
	l := &loader{seed: seed, clients: []*client{newClient(base)}}
	defer l.close()
	lat := make([]float64, 0, probeWrites)
	for k := 1; k <= probeWrites; k++ {
		t0 := time.Now()
		if err := l.write(k); err != nil {
			return nil, fmt.Errorf("write probe: %w", err)
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat, nil
}

// write sends the run's k-th insert and checks the table size after it.
func (l *loader) write(k int) error {
	rows, err := l.clients[0].insert(context.Background(), writeSeed(l.seed, k))
	if err == nil && rows != serverRows+k*insertRows {
		err = fmt.Errorf("table has %d rows after write %d, want %d", rows, k, serverRows+k*insertRows)
	}
	return err
}

// fill sends queries one at a time, in order, each as a binary batch of
// one, and returns the answers and, for each, the error of its request, if
// any. Sent right after a write has retired every cached entry, each query
// with a cache key of its own is a miss that the server observes exactly
// once, in this order.
func (l *loader) fill(texts []string) ([]reply, []error) {
	single := *l.w
	single.batch, single.wire = 1, true
	cl := l.clients[0]
	answers := make([]reply, len(texts))
	errs := make([]error, len(texts))
	var out []reply
	for i := range texts {
		out, errs[i] = cl.estimate(context.Background(), &single, texts[i:i+1], out[:0])
		if errs[i] == nil {
			answers[i] = out[0]
		}
	}
	return answers, errs
}

// swapWatch polls which chain the server serves while a phase runs, to
// find the last moment the initial chain was certainly still serving.
type swapWatch struct {
	initial  string
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	mu       sync.Mutex
	cutoff   time.Time // answers received before this came from the initial chain
	err      error
}

// watchSwaps polls /admin/recal at once and then every 100ms on cl, which
// it closes when done, until the served chain is no longer initial. Every
// recalibration swap renames the chain away from the initial one, so a
// poll that still reports initial proves no swap had been published when
// it was sent, and every answer received before then came from the
// initial chain.
func watchSwaps(cl *client, initial string) *swapWatch {
	sw := &swapWatch{initial: initial, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sw.done)
		defer cl.close()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for sw.poll(cl) {
			select {
			case <-sw.stop:
				sw.poll(cl)
				return
			case <-tick.C:
			}
		}
	}()
	return sw
}

// poll records one observation and reports whether watching should go on.
func (sw *swapWatch) poll(cl *client) bool {
	sent := time.Now()
	st, err := cl.recal(context.Background())
	sw.mu.Lock()
	defer sw.mu.Unlock()
	switch {
	case err != nil:
		sw.err = err
		return false
	case st.Serving != sw.initial:
		return false
	default:
		sw.cutoff = sent
		return true
	}
}

// finish stops polling after one last poll and returns the cutoff. Later
// calls return the same result.
func (sw *swapWatch) finish() (cutoff time.Time, err error) {
	sw.stopOnce.Do(func() { close(sw.stop) })
	<-sw.done
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.cutoff, sw.err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
