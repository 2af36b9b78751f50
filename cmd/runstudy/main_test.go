package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"guava/internal/relstore"
)

// TestFailedWarehouseSaveKeepsPreviousFile: a table that cannot be encoded
// — a NaN REAL cell, which the row encoder refuses — fails the save and
// leaves the table's previous file byte for byte as it was.
func TestFailedWarehouseSaveKeepsPreviousFile(t *testing.T) {
	schema := relstore.MustSchema(
		relstore.Column{Name: "K", Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "X", Type: relstore.KindFloat},
	)
	warehouse := func(x float64) *relstore.DB {
		db := relstore.NewDB("warehouse")
		table, err := db.CreateTable("T", schema)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(1); k <= 3; k++ {
			if err := table.Insert(relstore.Row{relstore.Int(k), relstore.Float(x * float64(k))}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	dir := t.TempDir()
	if err := saveWarehouse(dir, warehouse(0.5)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "T.rel")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(good) == 0 || good[0] != '[' {
		t.Fatalf("T.rel is not a v1 file: %q", good)
	}

	if err := saveWarehouse(dir, warehouse(math.NaN())); err == nil {
		t.Fatal("saving a NaN REAL cell succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, good) {
		t.Fatalf("a failed save changed T.rel from %d to %d bytes", len(good), len(after))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("warehouse dir holds %d entries after a failed save, want only T.rel", len(ents))
	}
}
