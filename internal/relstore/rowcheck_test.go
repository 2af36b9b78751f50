//go:build rowcheck

package relstore

import (
	"strings"
	"testing"
)

// TestRowCheckCatchesSharedRowWrites: under the rowcheck build, a write into
// a row a table handed out panics, naming the table, the next time the
// table hands out, clones, orders or deletes that row, or leaves its
// database — in this table or in one that took the same row over through
// InsertAll.
func TestRowCheckCatchesSharedRowWrites(t *testing.T) {
	touches := map[string]func(*DB, *Table){
		"Rows":   func(_ *DB, tb *Table) { tb.Rows() },
		"Select": func(_ *DB, tb *Table) { _, _ = tb.Select(Eq("ID", Int(1))) },
		"Lookup": func(_ *DB, tb *Table) { _, _ = tb.Lookup("K", Str("a")) },
		"Scan":   func(_ *DB, tb *Table) { tb.Scan(func(Row) bool { return true }) },
		"Clone":  func(_ *DB, tb *Table) { tb.Clone() },
		"Order":  func(_ *DB, tb *Table) { _ = tb.Order("N") },
		"Delete": func(_ *DB, tb *Table) { _, _ = tb.Delete(Eq("N", Int(99))) },
		"Drop": func(db *DB, tb *Table) {
			_ = db.Drop(tb.Name())
			_ = db.AddTable(tb)
		},
	}
	for name, touch := range touches {
		for _, shared := range []bool{false, true} {
			db := NewDB("d")
			tb, err := db.CreateTable("T", propSchema())
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.InsertAll([]Row{
				{Int(1), Str("a"), Int(2), Null(), Null()},
				{Int(2), Str("b"), Int(1), Null(), Null()},
			}); err != nil {
				t.Fatal(err)
			}
			rows := tb.Rows()
			if shared {
				if tb, err = db.CreateTable("U", propSchema()); err != nil {
					t.Fatal(err)
				}
				if err := tb.InsertAll(rows.Data); err != nil {
					t.Fatal(err)
				}
			}
			touch(db, tb) // untouched rows pass
			rows.Data[0][2] = Int(99)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, `table "`+tb.Name()+`"`) {
						t.Errorf("%s (shared=%v): got panic %q, want one naming table %s", name, shared, msg, tb.Name())
					}
				}()
				touch(db, tb)
			}()
		}
	}
}
