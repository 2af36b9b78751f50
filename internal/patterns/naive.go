package patterns

import (
	"context"
	"fmt"

	"guava/internal/relstore"
)

// Naive is the identity layout of Table 1: the physical database is exactly
// the in-memory naive schema — one table per form, one column per control.
type Naive struct{}

// Name implements Layout.
func (Naive) Name() string { return "Naive" }

// Describe implements Layout.
func (Naive) Describe() string {
	return "No transformations are applied to the data — this is just the in-memory database."
}

// Install implements Layout. The form's key column gets a hash index so
// key-equality queries and updates probe instead of scanning.
func (Naive) Install(db *relstore.DB, form FormInfo) error {
	t, err := db.EnsureTable(form.Name, form.Schema)
	if err != nil {
		return err
	}
	return t.CreateIndex(form.KeyColumn)
}

// Write implements Layout.
func (Naive) Write(db *relstore.DB, form FormInfo, row relstore.Row) error {
	t, err := db.Table(form.Name)
	if err != nil {
		return err
	}
	return t.Insert(row)
}

// Read implements Layout: the table scan evaluates where, probing the key
// index Install created for a key equality or IN, so the read is exact.
func (Naive) Read(_ context.Context, db *relstore.DB, form FormInfo, where relstore.Pred, _ func(SourceMiss)) (*relstore.Rows, bool, error) {
	rows, err := selectFrom(db, form.Name, where)
	if err != nil {
		return nil, false, err
	}
	return rows, true, nil
}

// Update implements Layout.
func (Naive) Update(db *relstore.DB, form FormInfo, key relstore.Value, col string, v relstore.Value) (int, error) {
	t, err := db.Table(form.Name)
	if err != nil {
		return 0, err
	}
	i := t.Schema().Index(col)
	if i < 0 {
		return 0, fmt.Errorf("patterns: naive update: no column %q", col)
	}
	return t.Update(relstore.Eq(form.KeyColumn, key), func(r relstore.Row) relstore.Row {
		r[i] = v
		return r
	})
}

// PhysicalTables implements Layout.
func (Naive) PhysicalTables(form FormInfo) []string { return []string{form.Name} }
