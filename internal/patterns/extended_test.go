package patterns

import (
	"strings"
	"testing"

	"guava/internal/relstore"
)

// TestSparseWideMisuse covers the GV313 hazard at runtime: a form with more
// data controls than the table has slots must refuse, not truncate.
func TestSparseWideMisuse(t *testing.T) {
	form, _ := testForm(t)
	db := relstore.NewDB("contrib")
	err := NewStack(SparseWide{Slots: 3}).Install(db, form)
	if err == nil || !strings.Contains(err.Error(), "5 data controls but only 3 slots") {
		t.Fatalf("install with too few slots: err = %v", err)
	}
	if err := NewStack(SparseWide{Slots: 0}).Install(db, form); err == nil {
		t.Fatal("install with zero slots must fail")
	}
}

// TestSparseWideSparsity checks the physical encoding: unused slots exist
// and stay NULL, answered slots store display text.
func TestSparseWideSparsity(t *testing.T) {
	form, rows := testForm(t)
	db := relstore.NewDB("contrib")
	stack := NewStack(SparseWide{Slots: 9})
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	pt, err := db.Table("Procedure_wide")
	if err != nil {
		t.Fatal(err)
	}
	if got := pt.Schema().Arity(); got != 10 {
		t.Fatalf("wide table arity = %d, want 10", got)
	}
	for _, row := range pt.Rows().Data {
		for i := 6; i < 10; i++ {
			if !row[i].IsNull() {
				t.Fatalf("slot %d of row %v should be NULL", i, row)
			}
		}
	}
}

// TestMultiValuedMisuse covers the GV314 hazards: designating the key,
// an unknown column, a duplicate, or nothing at all.
func TestMultiValuedMisuse(t *testing.T) {
	form, _ := testForm(t)
	cases := map[string]MultiValued{
		"key":       {Columns: []string{"ProcedureID"}},
		"unknown":   {Columns: []string{"Nope"}},
		"duplicate": {Columns: []string{"Smoking", "Smoking"}},
		"empty":     {},
	}
	for name, layout := range cases {
		db := relstore.NewDB("contrib")
		if err := NewStack(layout).Install(db, form); err == nil {
			t.Errorf("%s: install must fail", name)
		}
	}
}

// TestMultiValuedAmbiguity checks the pattern's defining hazard: a second
// answer for the same instance makes the naive read refuse rather than
// silently pick one.
func TestMultiValuedAmbiguity(t *testing.T) {
	form, rows := testForm(t)
	db := relstore.NewDB("contrib")
	stack := NewStack(MultiValued{Columns: []string{"Alcohol"}})
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	at, err := db.Table("Procedure_Alcohol_answers")
	if err != nil {
		t.Fatal(err)
	}
	// A reporting tool with multi-answer semantics stores a second answer.
	if err := at.Insert(relstore.Row{relstore.Int(1), relstore.Str("Moderate")}); err != nil {
		t.Fatal(err)
	}
	_, err = stack.Read(db, form)
	if err == nil || !strings.Contains(err.Error(), "ambiguous record") {
		t.Fatalf("read with duplicate answer: err = %v", err)
	}
	// ReadKeys on the poisoned key refuses too; other keys still read.
	_, keyErr := stack.ReadKeys(db, form, []relstore.Value{relstore.Int(1)})
	if keyErr == nil {
		t.Fatal("read-keys with duplicate answer must fail")
	}
	got, err := stack.ReadKeys(db, form, []relstore.Value{relstore.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("read-keys(2) = %d rows, want 1", got.Len())
	}
	// A query that pins a key reads only that record: the clean key pushes
	// down past the poisoned one, which fails as ReadKeys does.
	res, err := stack.QueryWithInfo(db, form, relstore.Eq("ProcedureID", relstore.Int(2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 1 || !res.PushedDown {
		t.Fatalf("query key 2: %d rows, pushed down %v; want 1, true", res.Rows.Len(), res.PushedDown)
	}
	_, err = stack.QueryWithInfo(db, form, relstore.Eq("ProcedureID", relstore.Int(1)), nil)
	if err == nil || err.Error() != keyErr.Error() {
		t.Fatalf("query key 1: err = %v, want %v", err, keyErr)
	}
}

// TestExtendedPhysicalTables pins the physical footprint of the two
// extended-catalog layouts.
func TestExtendedPhysicalTables(t *testing.T) {
	form, _ := testForm(t)
	got := SparseWide{Slots: 8}.PhysicalTables(form)
	if len(got) != 1 || got[0] != "Procedure_wide" {
		t.Errorf("sparse-wide tables = %v", got)
	}
	got = MultiValued{Columns: []string{"Smoking", "Alcohol"}}.PhysicalTables(form)
	want := []string{"Procedure_main", "Procedure_Smoking_answers", "Procedure_Alcohol_answers"}
	if len(got) != len(want) {
		t.Fatalf("multi-valued tables = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("multi-valued tables[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}
