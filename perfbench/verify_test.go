package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cardpi"
	"cardpi/internal/codec"
	"cardpi/internal/dataset"
	"cardpi/internal/pipeline"
	"cardpi/internal/workload"
)

// servedReply renders what the server answers for query qi of rep when it
// counted on snapshot count and scaled rows by snapshot scale.
func servedReply(t *testing.T, rep *replica, qi, count, scale int, lo, hi, est float64) reply {
	t.Helper()
	truth, err := rep.count(qi, count)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(rep.snaps[scale].NumRows())
	civ := cardpi.CardinalityInterval(cardpi.Interval{Lo: lo, Hi: hi}, n)
	return reply{
		EstSel: est, EstRows: est * float64(n), LoSel: lo, HiSel: hi,
		LoRows: civ.Lo, HiRows: civ.Hi, TrueRows: truth,
		Covered: civ.Contains(float64(truth)), ServedBy: "primary",
	}
}

func TestSnapshotMatcher(t *testing.T) {
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lines, err := buildUniverse(tab, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := &replica{lines: lines, snaps: []*dataset.Table{tab}, counts: []map[int]int64{{}}}
	for _, line := range lines {
		q, err := workload.ParseQuery(tab, line)
		if err != nil {
			t.Fatal(err)
		}
		rep.qs = append(rep.qs, q)
	}
	rep.expect = make([]expectation, len(lines))
	if err := rep.replayWrites(7, 3); err != nil {
		t.Fatal(err)
	}
	if got, want := rep.snaps[3].NumRows(), 2000+3*insertRows; got != want {
		t.Fatalf("snapshot 3 has %d rows, want %d", got, want)
	}
	// A query whose count moves between snapshots 1 and 2.
	qi := -1
	for i := range lines {
		c1, _ := rep.count(i, 1)
		c2, _ := rep.count(i, 2)
		if c1 != c2 {
			qi = i
			break
		}
	}
	if qi < 0 {
		t.Fatal("no universe query changes count between snapshots 1 and 2")
	}

	// An answer that overlapped write 2 may reflect snapshot 1 or 2.
	at2 := servedReply(t, rep, qi, 2, 2, 0.1, 0.2, 0.15)
	if err := rep.check(qi, at2, 1, 2, false); err != nil {
		t.Errorf("snapshot-2 answer rejected for range 1..2: %v", err)
	}
	if err := rep.check(qi, at2, 0, 1, false); err == nil {
		t.Error("snapshot-2 answer accepted for range 0..1")
	}
	// The server may count on one snapshot and scale rows by the next.
	mixed := servedReply(t, rep, qi, 1, 2, 0.1, 0.2, 0.15)
	if err := rep.check(qi, mixed, 1, 2, false); err != nil {
		t.Errorf("count@1/scale@2 answer rejected for range 1..2: %v", err)
	}
	if err := rep.check(qi, mixed, 2, 2, false); err == nil {
		t.Error("count@1 answer accepted for range 2..2")
	}
	if err := rep.check(qi, at2, 2, 4, false); err == nil {
		t.Error("snapshot range beyond the replayed writes accepted")
	}
}

// fakeServer answers wire-format batches from the replica, as a correct
// server would, except that it flips the lowest bit of hi_sel for the
// query flip (when non-empty) and, with depth > 0, reports that answer as
// served by that fallback stage. Answers are rendered before it starts, so
// the handler only reads shared state.
func fakeServer(t *testing.T, rep *replica, flip string, depth uint8) *httptest.Server {
	frames := map[string]codec.WireResult{}
	for qi, line := range rep.lines {
		e := rep.expect[qi]
		hi := e.hi
		if line == flip {
			hi = math.Float64frombits(math.Float64bits(hi) ^ 1)
		}
		a := servedReply(t, rep, qi, 0, 0, e.lo, hi, e.est)
		var flags, d uint8
		if a.Covered {
			flags = codec.WireFlagCovered
		}
		if line == flip && depth > 0 {
			d, flags = depth, flags|codec.WireFlagDegraded
		}
		frames[line] = codec.WireResult{
			EstSel: a.EstSel, EstRows: a.EstRows, LoSel: a.LoSel, HiSel: a.HiSel,
			LoRows: a.LoRows, HiRows: a.HiRows, TrueRows: a.TrueRows, Depth: d, Flags: flags,
		}
	}
	rows := uint64(rep.snaps[0].NumRows())
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil || r.URL.Path != "/estimate/batch" {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		raw, err := codec.DecodeWireRequest(body, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := make([]codec.WireResult, 0, len(raw))
		for _, q := range raw {
			out = append(out, frames[string(q)])
		}
		w.Header().Set("Content-Type", codec.WireContentType)
		_, _ = w.Write(codec.AppendWireResponse(nil, rows, out))
	}))
}

// TestFlippedBitFailsTheRun drives the correctness sweep against a fake
// server: exact answers pass, and one flipped interval bit in one answer —
// from the primary stage or from a fallback — makes the run incorrect and
// its exit code nonzero.
func TestFlippedBitFailsTheRun(t *testing.T) {
	w := workloads["hot-zipf-wire"]
	setup, err := pipeline.Build(serverConfig(w))
	if err != nil {
		t.Fatal(err)
	}
	lines, err := buildUniverse(setup.Table, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := newReplica(setup, w, lines)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flip  string
		depth uint8
		ok    bool
	}{{"", 0, true}, {lines[len(lines)/2], 0, false}, {lines[len(lines)/3], 1, false}} {
		srv := fakeServer(t, rep, tc.flip, tc.depth)
		l := newLoader(w, srv.URL, lines, 3)
		answers, _, failed, err := l.sweep()
		l.close()
		srv.Close()
		if err != nil || failed != 0 {
			t.Fatalf("sweep: %d failed, %v", failed, err)
		}
		res := newResult()
		if _, err := scoreSweep(rep, answers, 0, true, res); err != nil {
			t.Fatal(err)
		}
		if res.correct != tc.ok || (exitCode(res) == 0) != tc.ok {
			t.Fatalf("flip %q: correct=%t exit=%d, want correct=%t; problems: %v", tc.flip, res.correct, exitCode(res), tc.ok, res.problems)
		}
		if !tc.ok && (len(res.problems) != 1 || !strings.Contains(res.problems[0], tc.flip)) {
			t.Errorf("problems = %v, want exactly the flipped query", res.problems)
		}
		var buf bytes.Buffer
		if err := printResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		out := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last struct {
			Correct bool `json:"correct"`
		}
		if err := json.Unmarshal([]byte(out[len(out)-1]), &last); err != nil || last.Correct != tc.ok {
			t.Errorf("last output line %q: correct=%t (%v), want %t", out[len(out)-1], last.Correct, err, tc.ok)
		}
	}
}
