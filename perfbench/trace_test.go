package main

import (
	"bufio"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, req: 1, start: 0, end: 100},
		// Two overlapping children cover [10, 50]: 40ns, not 50.
		{name: "a", parent: 0, req: 1, start: 10, end: 40},
		{name: "b", parent: 0, req: 1, start: 30, end: 50},
		// A grandchild inside b.
		{name: "c", parent: 2, req: 1, start: 35, end: 45},
		// A child running past its parent's end counts only inside it.
		{name: "a", parent: 0, req: 1, start: 90, end: 120},
		{name: "root", parent: -1, req: 2, start: 200, end: 210},
	}
	agg := aggregate(spans)
	want := map[string]layerTime{
		"root": {calls: 2, total: 110, self: 100 - 40 - 10 + 10},
		"a":    {calls: 2, total: 60, self: 60},
		"b":    {calls: 1, total: 20, self: 10},
		"c":    {calls: 1, total: 10, self: 10},
	}
	for name, w := range want {
		if got := agg[name]; got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
}

func TestTracerNestsSpansPerRequest(t *testing.T) {
	tr := newTracer(0)
	r1 := tr.begin("req")
	p := tr.begin("parse")
	tr.end(p)
	c := tr.begin("chain")
	n := tr.begin("count")
	tr.end(n)
	tr.end(c)
	tr.end(r1)
	r2 := tr.begin("req")
	tr.end(r2)

	wantParent := []int32{-1, 0, 0, 2, -1}
	wantReq := []int32{1, 1, 1, 1, 2}
	if len(tr.spans) != len(wantParent) {
		t.Fatalf("%d spans, want %d", len(tr.spans), len(wantParent))
	}
	for i, s := range tr.spans {
		if s.parent != wantParent[i] || s.req != wantReq[i] {
			t.Errorf("span %d (%s): parent %d req %d, want %d %d", i, s.name, s.parent, s.req, wantParent[i], wantReq[i])
		}
		if s.end < s.start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	var none *tracer
	none.end(none.begin("ignored")) // a nil tracer records nothing and must not panic
}

func TestWriteSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.tsv.gz")
	spans := []span{
		{name: spanRequest, parent: -1, req: 1, start: 5, end: 90},
		{name: spanParse, parent: 0, req: 1, start: 10, end: 20},
	}
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	want := []string{
		"id\tparent\treq\tname\tstart_ns\tend_ns",
		"0\t-1\t1\tserve.request\t5\t90",
		"1\t0\t1\tworkload.ParseQuery\t10\t20",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("span file:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}
