package workload

import (
	"fmt"
	"runtime"
	"testing"
)

// contributors builds the three vendor contributors and Notes at n records
// each, as guavabench and the serve benchmarks deploy them.
func contributors(tb testing.TB, n int) []*Contributor {
	tb.Helper()
	vendors, err := BuildAll(42, n)
	if err != nil {
		tb.Fatal(err)
	}
	notes, err := BuildNotes(45, n)
	if err != nil {
		tb.Fatal(err)
	}
	return append(vendors, notes)
}

// BenchmarkContributorBatch times one seeded 24-mutation batch, the writer
// side of a refresh-churn tick, applied to the four contributors at 500
// and 5,000 records each. A cost that tracks the tables, not the batch,
// shows as growth across the sizes.
func BenchmarkContributorBatch(b *testing.B) {
	for _, n := range []int{500, 5000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			contribs := contributors(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Apply(contribs, RandomBatch(contribs, int64(i+1), 24)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBatchAllocsTrackTheBatch: a writer batch costs what it changes, not
// the tables it changes. The same ten seeded 24-mutation batches run at 500
// and at 2,000 records per contributor; their mallocs may grow by at most
// a quarter across the 4x size. Rebuilding every hash index of an updated
// table, one key string per stored row, made them grow with the table.
func TestBatchAllocsTrackTheBatch(t *testing.T) {
	perBatch := func(n int) float64 {
		contribs := contributors(t, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for seed := int64(1); seed <= 10; seed++ {
			if err := Apply(contribs, RandomBatch(contribs, seed, 24)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / 10
	}
	small, large := perBatch(500), perBatch(2000)
	t.Logf("mallocs per batch: %.0f at 500 records, %.0f at 2,000", small, large)
	if large > 1.25*small {
		t.Errorf("a batch's mallocs grew %.2fx with a 4x table: %.0f at 500 records, %.0f at 2,000", large/small, small, large)
	}
}
