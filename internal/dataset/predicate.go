package dataset

import (
	"fmt"
	"runtime"
	"sync"
)

// Op is a predicate operator. The paper evaluates conjunctive queries whose
// predicates are either point (A = v) or range (lb <= A <= ub).
type Op int

const (
	// OpEq matches rows where the column equals Lo.
	OpEq Op = iota
	// OpRange matches rows where Lo <= value <= Hi.
	OpRange
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpRange:
		return "between"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is a single conjunct over one column of one table.
type Predicate struct {
	Col string
	Op  Op
	// Lo is the point value for OpEq, or the lower bound for OpRange.
	Lo int64
	// Hi is the upper bound for OpRange (ignored for OpEq).
	Hi int64
}

// Matches reports whether value v satisfies the predicate.
func (p Predicate) Matches(v int64) bool {
	if p.Op == OpEq {
		return v == p.Lo
	}
	return v >= p.Lo && v <= p.Hi
}

func (p Predicate) String() string {
	if p.Op == OpEq {
		return fmt.Sprintf("%s = %d", p.Col, p.Lo)
	}
	return fmt.Sprintf("%d <= %s <= %d", p.Lo, p.Col, p.Hi)
}

// bound is a compiled per-column range check: a row value v matches when
// uint64(v-lo) <= span, where span = uint64(hi-lo). With lo <= hi the
// wrapping subtraction maps [lo, hi] onto [0, span] and every other int64
// above span, so one unsigned compare replaces two signed ones for any
// bounds, math.MinInt64 and math.MaxInt64 included.
type bound struct {
	col  []int64
	lo   int64
	span uint64
}

// stackBounds is the number of compiled predicates Count and MatchingRows
// keep on the stack; longer conjunctions spill to the heap.
const stackBounds = 8

// compile resolves preds against t's columns, appending one bound per
// predicate to dst. empty reports that some predicate's range is empty
// (Lo > Hi), so the conjunction matches no row. An unknown column is an
// error whatever the other predicates say.
func (t *Table) compile(preds []Predicate, dst []bound) (bounds []bound, empty bool, err error) {
	for _, p := range preds {
		i, ok := t.byName[p.Col]
		if !ok {
			return nil, false, fmt.Errorf("dataset: table %q has no column %q", t.Name, p.Col)
		}
		lo, hi := p.Lo, p.Hi
		if p.Op == OpEq {
			hi = p.Lo
		}
		if lo > hi {
			empty = true
		}
		dst = append(dst, bound{col: t.Cols[i].Values, lo: lo, span: uint64(hi - lo)})
	}
	return dst, empty, nil
}

// blockRows is the row block the scan kernel evaluates at a time; a block's
// selection vector (4 KiB of int32 offsets) lives on the stack.
const blockRows = 1024

// selectBlock is the column-at-a-time scan kernel shared by Count and
// MatchingRows. It writes into sel the offsets, relative to base, of the
// rows in [base, stop) that satisfy every bound (stop-base <= blockRows)
// and returns how many there are, in ascending order. The first predicate
// fills the selection vector from its column; each later one compacts it
// in place. Both loops store unconditionally and advance the write cursor
// by the 0/1 outcome of the compare, so the selectivity of a predicate
// never costs a branch misprediction.
func selectBlock(bounds []bound, base, stop int, sel *[blockRows]int32) int {
	if len(bounds) == 0 {
		for i := range stop - base {
			sel[i] = int32(i)
		}
		return stop - base
	}
	b := bounds[0]
	m := 0
	for i, v := range b.col[base:stop] {
		// m <= i < blockRows, so the mask only spares the bounds check.
		sel[m&(blockRows-1)] = int32(i)
		m += b2i(uint64(v-b.lo) <= b.span)
	}
	for _, b := range bounds[1:] {
		if m == 0 {
			break
		}
		col := b.col[base:stop]
		k := 0
		for _, j := range sel[:m] {
			sel[k] = j
			k += b2i(uint64(col[j]-b.lo) <= b.span)
		}
		m = k
	}
	return m
}

// b2i converts a compare outcome to 0/1 without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// countChunk counts matching rows in [start, end).
func countChunk(bounds []bound, start, end int) int64 {
	var sel [blockRows]int32
	var count int64
	for base := start; base < end; base += blockRows {
		count += int64(selectBlock(bounds, base, min(base+blockRows, end), &sel))
	}
	return count
}

// parallelThreshold is the row count above which scans fan out across CPUs;
// below it goroutine overhead dominates.
const parallelThreshold = 65536

// Count returns the exact number of rows in t satisfying the conjunction of
// preds. Predicates naming columns absent from t yield an error. Large
// tables are scanned in parallel chunks; the result is exact and
// deterministic either way. Below parallelThreshold a call does not
// allocate.
func (t *Table) Count(preds []Predicate) (int64, error) {
	var buf [stackBounds]bound
	bounds, empty, err := t.compile(preds, buf[:0])
	if err != nil || empty {
		return 0, err
	}
	n := t.NumRows()
	if n < parallelThreshold {
		return countChunk(bounds, 0, n), nil
	}
	return countParallel(bounds, n), nil
}

// countParallel counts [0, n) in one chunk per worker. The workers share a
// heap copy of bounds, so the caller's stack buffer never escapes.
func countParallel(compiled []bound, n int) int64 {
	bounds := append([]bound(nil), compiled...)
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	partial := make([]int64, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		end := start + chunk
		if end > n {
			end = n
		}
		if start >= end {
			break
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			partial[w] = countChunk(bounds, start, end)
		}(w, start, end)
	}
	wg.Wait()
	var total int64
	for _, c := range partial {
		total += c
	}
	return total
}

// Selectivity returns Count(preds) normalised by the table size.
func (t *Table) Selectivity(preds []Predicate) (float64, error) {
	c, err := t.Count(preds)
	if err != nil {
		return 0, err
	}
	return float64(c) / float64(t.NumRows()), nil
}

// MatchingRows returns the indexes of all rows satisfying the conjunction,
// in ascending order (nil when none does).
func (t *Table) MatchingRows(preds []Predicate) ([]int, error) {
	var buf [stackBounds]bound
	bounds, empty, err := t.compile(preds, buf[:0])
	if err != nil || empty {
		return nil, err
	}
	var out []int
	n := t.NumRows()
	var sel [blockRows]int32
	for base := 0; base < n; base += blockRows {
		m := selectBlock(bounds, base, min(base+blockRows, n), &sel)
		for _, j := range sel[:m] {
			out = append(out, base+int(j))
		}
	}
	return out, nil
}
