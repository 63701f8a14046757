package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"
)

// span is one timed layer call of the traced replay. Spans of one request
// share req; parent is the index of the enclosing span, -1 for a root.
type span struct {
	name   string
	parent int32
	req    int32
	start  int64 // ns since the tracer's origin
	end    int64
}

// tracer records spans in memory for one goroutine. A nil tracer records
// nothing, which is how the untraced replay and the replica run the same
// code without spans.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int32
	reqs   int32
}

// newTracer returns a tracer with room for about n spans.
func newTracer(n int) *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, n)} }

// begin opens a span named name under the innermost open span and returns
// its handle. A span opened with no span open starts a new request. The
// clock is read last, so the span's own bookkeeping stays outside it.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent, req := int32(-1), t.reqs
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		req = t.spans[parent].req
	} else {
		t.reqs++
		req = t.reqs
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, req: req})
	t.stack = append(t.stack, id)
	t.spans[id].start = int64(time.Since(t.origin))
	return id
}

// end closes the span begin returned; spans close innermost first. The
// clock is read first, for the same reason.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTime is the aggregate of every span of one name.
type layerTime struct {
	calls int64
	total int64 // ns, span durations
	self  int64 // ns, durations minus the time child spans cover
}

// aggregate sums each span name's calls, duration and self time. A span's
// self time is its duration minus the union of its children's intervals,
// clipped to the span, so overlapping children are not subtracted twice.
func aggregate(spans []span) map[string]layerTime {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	out := map[string]layerTime{}
	for i, s := range spans {
		dur := s.end - s.start
		lt := out[s.name]
		lt.calls++
		lt.total += dur
		lt.self += dur - covered(spans, s, kids[i])
		out[s.name] = lt
	}
	return out
}

// covered is the length of the union of the child intervals inside parent.
func covered(spans []span, parent span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes every span as one gzip-compressed tab-separated line:
// id, parent, request, name, start and end in ns since the replay began.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\treq\tname\tstart_ns\tend_ns")
	var line []byte
	for i, s := range spans {
		line = strconv.AppendInt(line[:0], int64(i), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(s.req), 10)
		line = append(line, '\t')
		line = append(line, s.name...)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
