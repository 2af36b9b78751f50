package relstore

import (
	"fmt"
	"testing"
)

// keyedBenchTable builds a table shaped like a warehouse study table: a
// string entity key (indexed, unique) and an indexed low-cardinality
// partition column.
func keyedBenchTable(b *testing.B, n int) *Table {
	b.Helper()
	s := MustSchema(
		Column{Name: "EntityKey", Type: KindString, NotNull: true},
		Column{Name: "Contributor", Type: KindString},
		Column{Name: "V", Type: KindInt},
	)
	t := NewTable("T", s)
	for i := 0; i < n; i++ {
		if err := t.Insert(Row{Str(fmt.Sprintf("k%05d", i)), Str(fmt.Sprintf("c%d", i%3)), Int(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	if err := t.CreateIndex("EntityKey"); err != nil {
		b.Fatal(err)
	}
	if err := t.CreateIndex("Contributor"); err != nil {
		b.Fatal(err)
	}
	return t
}

// BenchmarkDeleteSmallFromLarge is the delta-refresh hot path: delete a
// handful of keyed rows out of a large indexed table, then put them back.
// The delete must stay near-flat as the table grows — it is allowed integer
// work on the surviving index entries, but no re-hashing of row values and
// no O(rows) allocations.
func BenchmarkDeleteSmallFromLarge(b *testing.B) {
	for _, n := range []int{100, 6000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := keyedBenchTable(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				keys := make([]Value, 8)
				for j := range keys {
					keys[j] = Str(fmt.Sprintf("k%05d", (i*8+j)%n))
				}
				pred := In(Col("EntityKey"), keys...)
				rows, err := t.Select(pred)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := t.Delete(pred); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for _, r := range rows.Data {
					if err := t.Insert(r); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkOrderAfterPatch is the per-generation reorder of a delta tick:
// delete 8 keyed rows from an ordered table, append 8 fresh ones, and
// Order by every column again. Only the Order is timed. It compares the
// appended rows, not the table: its cost should stay near-flat as the
// table grows 20x, with no O(rows) allocation.
func BenchmarkOrderAfterPatch(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := keyedBenchTable(b, n)
			cols := t.Schema().Names()
			if err := t.Order(cols...); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				keys := make([]Value, 8)
				fresh := make([]Row, 8)
				for j := range keys {
					k := fmt.Sprintf("k%05d", (i*8+j*(n/8))%n)
					keys[j] = Str(k)
					fresh[j] = Row{Str(k), Str(fmt.Sprintf("c%d", j%3)), Int(int64(i))}
				}
				if _, err := t.Delete(In(Col("EntityKey"), keys...)); err != nil {
					b.Fatal(err)
				}
				if err := t.InsertAll(fresh); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := t.Order(cols...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
