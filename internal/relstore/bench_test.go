package relstore

import (
	"bytes"
	"fmt"
	"testing"
)

func benchTable(b *testing.B, n int, index bool) *Table {
	b.Helper()
	s := MustSchema(
		Column{Name: "ID", Type: KindInt, NotNull: true},
		Column{Name: "Status", Type: KindString},
		Column{Name: "Score", Type: KindFloat},
	)
	t := NewTable("T", s)
	for i := 0; i < n; i++ {
		status := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}[i%10]
		if err := t.Insert(Row{Int(int64(i)), Str(status), Float(float64(i % 100))}); err != nil {
			b.Fatal(err)
		}
	}
	if index {
		if err := t.CreateIndex("Status"); err != nil {
			b.Fatal(err)
		}
	}
	return t
}

// BenchmarkSelectIndexedVsScan measures the hash-index fast path for
// selective equality predicates.
func BenchmarkSelectIndexedVsScan(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		pred := Eq("Status", Str("c"))
		b.Run(fmt.Sprintf("n=%d/indexed", n), func(b *testing.B) {
			t := benchTable(b, n, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := t.Select(pred); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/scan", n), func(b *testing.B) {
			t := benchTable(b, n, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := t.Select(pred); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoin measures the hash equi-join.
func BenchmarkJoin(b *testing.B) {
	left := benchTable(b, 5000, false).Rows()
	rs := MustSchema(Column{Name: "FID", Type: KindInt}, Column{Name: "Note", Type: KindString})
	rdata := make([]Row, 2000)
	for i := range rdata {
		rdata[i] = Row{Int(int64(i * 2)), Str("note")}
	}
	right := &Rows{Schema: rs, Data: rdata}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Join(left, right, "ID", "FID", "r"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPivotUnpivot measures the EAV conversion pair (the Generic
// pattern's hot path).
func BenchmarkPivotUnpivot(b *testing.B) {
	wide := benchTable(b, 2000, false).Rows()
	attrs := []Column{{Name: "Status", Type: KindString}, {Name: "Score", Type: KindFloat}}
	b.Run("pivot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Pivot(wide, []string{"ID"}, "A", "V"); err != nil {
				b.Fatal(err)
			}
		}
	})
	eav, err := Pivot(wide, []string{"ID"}, "A", "V")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unpivot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Unpivot(eav, []string{"ID"}, "A", "V", attrs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGroupBy measures aggregation (the study funnels' backbone).
func BenchmarkGroupBy(b *testing.B) {
	rows := benchTable(b, 10000, false).Rows()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GroupBy(rows, []string{"Status"},
			Aggregate{Kind: AggCount, As: "N"},
			Aggregate{Kind: AggAvg, Col: "Score", As: "Mean"},
		); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteTyped encodes a generation-sized study table the way
// persisting a generation base does: WriteTyped over the table's shared
// rows.
func BenchmarkWriteTyped(b *testing.B) {
	table := studyShapedTable(b, 20000)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteTyped(&buf, table.Rows()); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
