package dataset

import (
	"fmt"
	"testing"
)

// BenchmarkTableCount times the exact-count oracle on 1-, 2- and
// 3-predicate conjunctions, below and above the parallel threshold.
func BenchmarkTableCount(b *testing.B) {
	preds := []Predicate{
		{Col: "state", Op: OpEq, Lo: 3},
		{Col: "model_year", Op: OpRange, Lo: 40, Hi: 90},
		{Col: "body_type", Op: OpRange, Lo: 0, Hi: 3},
	}
	for _, rows := range []int{20000, 100000} {
		tab, err := GenerateDMV(GenConfig{Rows: rows, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for k := 1; k <= len(preds); k++ {
			b.Run(fmt.Sprintf("rows=%d/preds=%d", rows, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := tab.Count(preds[:k]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkJoinCount(b *testing.B) {
	sch, err := GenerateJOB(GenConfig{Rows: 5000, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	q := JoinQuery{
		Tables: []string{"cast_info", "movie_info"},
		Preds: map[string][]Predicate{
			"title":     {{Col: "kind_id", Op: OpEq, Lo: 0}},
			"cast_info": {{Col: "ci_role_id", Op: OpRange, Lo: 0, Hi: 4}},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.JoinCount(q); err != nil {
			b.Fatal(err)
		}
	}
}
