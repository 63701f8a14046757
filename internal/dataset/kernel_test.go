package dataset

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// naiveMatch is the row-at-a-time reference the block kernel is checked
// against: two signed compares per predicate, no compilation.
func naiveMatch(tab *Table, preds []Predicate, row int) bool {
	for _, p := range preds {
		v := tab.Column(p.Col).Values[row]
		lo, hi := p.Lo, p.Hi
		if p.Op == OpEq {
			hi = lo
		}
		if v < lo || v > hi {
			return false
		}
	}
	return true
}

func naiveCount(tab *Table, preds []Predicate) int64 {
	var n int64
	for i := 0; i < tab.NumRows(); i++ {
		if naiveMatch(tab, preds, i) {
			n++
		}
	}
	return n
}

func naiveRows(tab *Table, preds []Predicate) []int {
	var out []int
	for i := 0; i < tab.NumRows(); i++ {
		if naiveMatch(tab, preds, i) {
			out = append(out, i)
		}
	}
	return out
}

// checkKernel compares Count and MatchingRows with the naive reference.
func checkKernel(t *testing.T, tab *Table, preds []Predicate) {
	t.Helper()
	got, err := tab.Count(preds)
	if err != nil {
		t.Fatalf("Count(%v): %v", preds, err)
	}
	if want := naiveCount(tab, preds); got != want {
		t.Fatalf("rows=%d Count(%v) = %d, want %d", tab.NumRows(), preds, got, want)
	}
	rows, err := tab.MatchingRows(preds)
	if err != nil {
		t.Fatalf("MatchingRows(%v): %v", preds, err)
	}
	if want := naiveRows(tab, preds); !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows=%d MatchingRows(%v): %d rows, want %d", tab.NumRows(), preds, len(rows), len(want))
	}
}

// extremeTable holds values spread over the whole int64 range, so range
// bounds at math.MinInt64/MaxInt64 exercise the wrapping range test.
func extremeTable(rows int, seed int64) *Table {
	r := rand.New(rand.NewSource(seed))
	pick := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	a := make([]int64, rows)
	b := make([]int64, rows)
	for i := range a {
		a[i] = pick[r.Intn(len(pick))]
		b[i] = int64(r.Uint64())
	}
	return MustNewTable("extreme", []*Column{
		{Name: "a", Type: Numeric, Values: a, Min: math.MinInt64, Max: math.MaxInt64},
		{Name: "b", Type: Numeric, Values: b, Min: math.MinInt64, Max: math.MaxInt64},
	})
}

// randomPreds draws a 1-4 predicate conjunction over distinct columns of
// tab, with bounds slightly beyond each column's domain and, sometimes,
// lo > hi.
func randomPreds(r *rand.Rand, tab *Table) []Predicate {
	k := 1 + r.Intn(min(4, tab.NumCols()))
	preds := make([]Predicate, 0, k)
	for _, ci := range r.Perm(tab.NumCols())[:k] {
		c := tab.Cols[ci]
		lo, hi := c.Min, c.Max
		if c.Type == Categorical {
			lo, hi = 0, c.DomainSize-1
		}
		span := hi - lo + 3
		a := lo - 1 + r.Int63n(span)
		if r.Intn(3) == 0 {
			preds = append(preds, Predicate{Col: c.Name, Op: OpEq, Lo: a})
			continue
		}
		b := lo - 1 + r.Int63n(span)
		if b < a && r.Intn(8) != 0 {
			a, b = b, a
		}
		preds = append(preds, Predicate{Col: c.Name, Op: OpRange, Lo: a, Hi: b})
	}
	return preds
}

func TestKernelMatchesNaiveRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, rows := range []int{0, 1, blockRows - 1, blockRows, blockRows + 1, 3*blockRows + 17, 20000} {
		tab, err := GenerateDMV(GenConfig{Rows: max(rows, 1), Seed: int64(rows) + 1})
		if err != nil {
			t.Fatal(err)
		}
		if rows == 0 {
			tab = tab.SelectRows(nil)
		}
		for i := 0; i < 60; i++ {
			checkKernel(t, tab, randomPreds(r, tab))
		}
		checkKernel(t, tab, nil)
	}
}

func TestKernelEmptyRange(t *testing.T) {
	tab, err := GenerateDMV(GenConfig{Rows: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, preds := range [][]Predicate{
		{{Col: "model_year", Op: OpRange, Lo: 60, Hi: 59}},
		{{Col: "state", Op: OpEq, Lo: 1}, {Col: "model_year", Op: OpRange, Lo: math.MaxInt64, Hi: math.MinInt64}},
	} {
		checkKernel(t, tab, preds)
		if n, _ := tab.Count(preds); n != 0 {
			t.Fatalf("Count(%v) = %d, want 0", preds, n)
		}
	}
	// An empty range does not hide an unknown column.
	preds := []Predicate{{Col: "state", Op: OpRange, Lo: 5, Hi: 1}, {Col: "nope", Op: OpEq}}
	if _, err := tab.Count(preds); err == nil {
		t.Fatal("Count: expected error for unknown column after an empty range")
	}
	if _, err := tab.MatchingRows(preds); err == nil {
		t.Fatal("MatchingRows: expected error for unknown column after an empty range")
	}
}

func TestKernelExtremeBounds(t *testing.T) {
	tab := extremeTable(3*blockRows+5, 4)
	bounds := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, lo := range bounds {
		checkKernel(t, tab, []Predicate{{Col: "a", Op: OpEq, Lo: lo}})
		for _, hi := range bounds {
			checkKernel(t, tab, []Predicate{{Col: "a", Op: OpRange, Lo: lo, Hi: hi}})
			checkKernel(t, tab, []Predicate{
				{Col: "a", Op: OpRange, Lo: lo, Hi: hi},
				{Col: "b", Op: OpRange, Lo: math.MinInt64, Hi: hi},
			})
		}
	}
}

func TestKernelParallelPath(t *testing.T) {
	tab, err := GenerateDMV(GenConfig{Rows: parallelThreshold + 3*blockRows + 7, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 20; i++ {
		checkKernel(t, tab, randomPreds(r, tab))
	}
}

func TestKernelUnknownColumn(t *testing.T) {
	tab, err := GenerateDMV(GenConfig{Rows: parallelThreshold + 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{{Col: "state", Op: OpEq, Lo: 1}, {Col: "nope", Op: OpEq}}
	if _, err := tab.Count(preds); err == nil {
		t.Fatal("Count: expected error for unknown column")
	}
	if _, err := tab.MatchingRows(preds); err == nil {
		t.Fatal("MatchingRows: expected error for unknown column")
	}
}

// TestCountDoesNotAllocate pins the zero-allocation contract of the
// sequential path, compile included.
func TestCountDoesNotAllocate(t *testing.T) {
	tab, err := GenerateDMV(GenConfig{Rows: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{
		{Col: "state", Op: OpEq, Lo: 3},
		{Col: "model_year", Op: OpRange, Lo: 40, Hi: 90},
	}
	if a := testing.AllocsPerRun(50, func() { _, _ = tab.Count(preds) }); a != 0 {
		t.Fatalf("Count allocates %v times per call, want 0", a)
	}
}
