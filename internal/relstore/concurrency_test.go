package relstore

import (
	"bytes"
	"sync"
	"testing"
)

// TestConcurrentReadersWriter is the serving-path concurrency contract,
// meant to run under -race: many readers extract from a table while a
// writer refreshes it. Update and Delete hold the write lock for the whole
// call, and Select, Clone and Rows (which a generation base encodes) read
// under the read lock, so every read must observe a consistent snapshot —
// here, a table-wide invariant (all rows carry the same Version) that the
// writer advances atomically. A Clone shares the stored rows, so reading it back must show
// its snapshot's Version however far the writer has moved on.
func TestConcurrentReadersWriter(t *testing.T) {
	schema := MustSchema(
		Column{Name: "EntityKey", Type: KindInt, NotNull: true},
		Column{Name: "Version", Type: KindInt, NotNull: true},
	)
	table := NewTable("Study_stress", schema)
	const rows = 64
	for i := 0; i < rows; i++ {
		if err := table.Insert(Row{Int(int64(i)), Int(0)}); err != nil {
			t.Fatal(err)
		}
	}

	const (
		readers  = 8
		reads    = 200
		rewrites = 100
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers)

	// Writer: bump every row's Version in one Update call per iteration.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := int64(1); v <= rewrites; v++ {
			version := v
			if _, err := table.Update(nil, func(r Row) Row {
				out := r.Clone()
				out[1] = Int(version)
				return out
			}); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Readers: every Select must see a single Version across all rows —
	// half-applied updates would be a torn snapshot.
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < reads; j++ {
				got, err := snapshot(table, j%3)
				if err != nil {
					errs <- err
					return
				}
				if got.Len() != rows {
					t.Errorf("select saw %d rows, want %d", got.Len(), rows)
					return
				}
				first := got.Data[0][1].AsInt()
				for _, r := range got.Data {
					if r[1].AsInt() != first {
						t.Errorf("torn read: versions %d and %d in one select", first, r[1].AsInt())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// snapshot reads the whole table one of three ways: Select, the rows a
// generation base writes read back, or a Select on a Clone.
func snapshot(table *Table, way int) (*Rows, error) {
	switch way {
	case 1:
		var buf bytes.Buffer
		if err := WriteTyped(&buf, table.Rows()); err != nil {
			return nil, err
		}
		return ReadTyped(&buf)
	case 2:
		return table.Clone().Select(nil)
	}
	return table.Select(nil)
}

// TestConcurrentDBTableLifecycle: table creation races against lookups
// without corrupting the catalog.
func TestConcurrentDBTableLifecycle(t *testing.T) {
	db := NewDB("stress")
	schema := MustSchema(Column{Name: "K", Type: KindInt})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := db.EnsureTable("T", schema); err != nil {
					t.Errorf("EnsureTable: %v", err)
					return
				}
				if !db.Has("T") {
					t.Error("table vanished between ensure and lookup")
					return
				}
				_ = db.TableNames()
			}
		}()
	}
	wg.Wait()
}
