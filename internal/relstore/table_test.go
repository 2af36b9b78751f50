package relstore

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func procSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "ProcedureID", Type: KindInt, NotNull: true},
		Column{Name: "Smoking", Type: KindString},
		Column{Name: "PacksPerDay", Type: KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema(Column{Name: "A", Type: KindInt}, Column{Name: "A", Type: KindString})
	if err == nil {
		t.Fatal("duplicate column names must be rejected")
	}
	_, err = NewSchema(Column{Name: "", Type: KindInt})
	if err == nil {
		t.Fatal("empty column name must be rejected")
	}
}

func TestSchemaLookups(t *testing.T) {
	s := procSchema(t)
	if s.Index("Smoking") != 1 {
		t.Errorf("Index(Smoking) = %d, want 1", s.Index("Smoking"))
	}
	if s.Index("nope") != -1 {
		t.Error("missing column must index to -1")
	}
	if !s.Has("ProcedureID") || s.Has("procedureid") {
		t.Error("Has must be case-sensitive")
	}
	if got := s.NameList(); got != "ProcedureID, Smoking, PacksPerDay" {
		t.Errorf("NameList = %q", got)
	}
}

func TestSchemaProjectRenameAppend(t *testing.T) {
	s := procSchema(t)
	p, err := s.Project("PacksPerDay", "ProcedureID")
	if err != nil {
		t.Fatal(err)
	}
	if p.Arity() != 2 || p.Columns[0].Name != "PacksPerDay" {
		t.Errorf("project wrong: %v", p.Names())
	}
	if _, err := s.Project("nope"); err == nil {
		t.Error("projecting a missing column must fail")
	}
	r, err := s.Rename("Smoking", "SmokingStatus")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Has("SmokingStatus") || r.Has("Smoking") {
		t.Error("rename did not take")
	}
	if s.Has("SmokingStatus") {
		t.Error("rename must not mutate the original")
	}
	a, err := s.Append(Column{Name: "Alcohol", Type: KindString})
	if err != nil {
		t.Fatal(err)
	}
	if a.Arity() != 4 {
		t.Error("append did not add column")
	}
	if _, err := s.Append(Column{Name: "Smoking", Type: KindInt}); err == nil {
		t.Error("appending a duplicate name must fail")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := procSchema(t)
	ok := []Row{
		{Int(1), Str("Current"), Float(1.5)},
		{Int(2), Null(), Null()},
		{Int(3), Str("None"), Int(2)}, // int accepted for float column
	}
	for _, r := range ok {
		if err := s.Validate(r); err != nil {
			t.Errorf("Validate(%v): %v", r, err)
		}
	}
	bad := []Row{
		{Null(), Str("x"), Null()},      // NULL in NOT NULL
		{Int(1), Int(5), Null()},        // wrong kind
		{Int(1), Str("x")},              // arity
		{Str("1"), Str("x"), Float(0)},  // string where int
		{Int(1), Str("x"), Str("heal")}, // string where float
	}
	for _, r := range bad {
		if err := s.Validate(r); err == nil {
			t.Errorf("Validate(%v): expected error", r)
		}
	}
}

func TestSchemaDDL(t *testing.T) {
	s := procSchema(t)
	ddl := s.DDL()
	if !strings.Contains(ddl, "ProcedureID INTEGER NOT NULL") || !strings.Contains(ddl, "Smoking TEXT") {
		t.Errorf("DDL = %q", ddl)
	}
}

func TestTableInsertAndScan(t *testing.T) {
	tab := NewTable("Procedures", procSchema(t))
	if err := tab.Insert(Row{Int(1), Str("Current"), Float(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(Row{Int(2), Str("None"), Float(0)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(Row{Int(1), Str("x")}); err == nil {
		t.Fatal("arity-violating insert must fail")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	var seen int
	tab.Scan(func(r Row) bool { seen++; return true })
	if seen != 2 {
		t.Errorf("scan visited %d rows", seen)
	}
	seen = 0
	tab.Scan(func(r Row) bool { seen++; return false })
	if seen != 1 {
		t.Error("scan must stop when fn returns false")
	}
}

func TestTableInsertClones(t *testing.T) {
	tab := NewTable("T", procSchema(t))
	r := Row{Int(1), Str("Current"), Float(2)}
	if err := tab.Insert(r); err != nil {
		t.Fatal(err)
	}
	r[1] = Str("MUTATED")
	rows := tab.Rows()
	if rows.Data[0][1].AsString() != "Current" {
		t.Error("Insert must clone the row")
	}
}

func TestTableInsertMap(t *testing.T) {
	tab := NewTable("T", procSchema(t))
	err := tab.InsertMap(map[string]Value{"ProcedureID": Int(7), "Smoking": Str("Prev")})
	if err != nil {
		t.Fatal(err)
	}
	rows := tab.Rows()
	if !rows.Data[0][2].IsNull() {
		t.Error("absent column must be NULL")
	}
	if err := tab.InsertMap(map[string]Value{"Nope": Int(1)}); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestTableUpdateDelete(t *testing.T) {
	tab := NewTable("T", procSchema(t))
	for i := 1; i <= 4; i++ {
		if err := tab.Insert(Row{Int(int64(i)), Str("Current"), Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tab.Update(Cmp(CmpGt, Col("ProcedureID"), Lit(Int(2))), func(r Row) Row {
		r[1] = Str("None")
		return r
	})
	if err != nil || n != 2 {
		t.Fatalf("Update = (%d, %v), want (2, nil)", n, err)
	}
	got, err := tab.Lookup("Smoking", Str("None"))
	if err != nil || len(got) != 2 {
		t.Fatalf("Lookup after update: %d rows, err %v", len(got), err)
	}
	n, err = tab.Delete(Eq("Smoking", Str("None")))
	if err != nil || n != 2 {
		t.Fatalf("Delete = (%d, %v)", n, err)
	}
	if tab.Len() != 2 {
		t.Errorf("Len after delete = %d", tab.Len())
	}
}

// TestFailedUpdateLeavesTableUntouched: an Update whose second replacement
// fails NOT NULL writes nothing, so the index on V, a Select through it and
// the ordered prefix on K still describe the rows the table holds.
func TestFailedUpdateLeavesTableUntouched(t *testing.T) {
	tab := NewTable("T", MustSchema(
		Column{Name: "K", Type: KindInt, NotNull: true},
		Column{Name: "V", Type: KindString, NotNull: true},
	))
	if err := tab.CreateIndex("V"); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{3, 1, 2, 0} {
		if err := tab.Insert(Row{Int(k), Str("a")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Order("K"); err != nil {
		t.Fatal(err)
	}
	before := tab.Rows()
	calls := 0
	n, err := tab.Update(nil, func(r Row) Row {
		calls++
		if calls == 1 {
			return Row{Int(99), Str("b")}
		}
		r[1] = Null()
		return r
	})
	if err == nil || n != 0 || calls != 2 {
		t.Fatalf("Update = (%d, %v) after %d calls, want (0, NOT NULL error) after 2", n, err, calls)
	}
	if err := strictRowsEq(tab.Rows(), before); err != nil {
		t.Fatalf("a failed Update changed the rows: %v", err)
	}
	for _, v := range []string{"a", "b"} {
		var want int
		for _, r := range tab.Rows().Data {
			if r[1].AsString() == v {
				want++
			}
		}
		got, err := tab.Lookup("V", Str(v))
		if err != nil || len(got) != want {
			t.Errorf("Lookup(V, %q) = %d rows (%v), the table holds %d", v, len(got), err, want)
		}
		sel, err := tab.Select(Eq("V", Str(v)))
		if err != nil || sel.Len() != want {
			t.Errorf("Select(V = %q) = %d rows (%v), the table holds %d", v, sel.Len(), err, want)
		}
	}
	if err := tab.Order("K"); err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for _, r := range tab.Rows().Data {
		keys = append(keys, r[0].AsInt())
	}
	if !slices.Equal(keys, []int64{0, 1, 2, 3}) {
		t.Errorf("Order(K) after a failed Update left K as %v, want [0 1 2 3]", keys)
	}
}

func TestTableIndexLookupMatchesScan(t *testing.T) {
	tab := NewTable("T", procSchema(t))
	for i := 0; i < 100; i++ {
		status := "None"
		if i%3 == 0 {
			status = "Current"
		}
		if err := tab.Insert(Row{Int(int64(i)), Str(status), Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	scanned, err := tab.Lookup("Smoking", Str("Current"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("Smoking"); err != nil {
		t.Fatal(err)
	}
	if !tab.HasIndex("Smoking") {
		t.Fatal("index not registered")
	}
	indexed, err := tab.Lookup("Smoking", Str("Current"))
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed) != len(scanned) {
		t.Fatalf("indexed lookup %d rows, scan %d", len(indexed), len(scanned))
	}
	// Index must stay fresh across insert, update, delete.
	if err := tab.Insert(Row{Int(1000), Str("Current"), Float(1)}); err != nil {
		t.Fatal(err)
	}
	indexed, _ = tab.Lookup("Smoking", Str("Current"))
	if len(indexed) != len(scanned)+1 {
		t.Error("index stale after insert")
	}
	if _, err := tab.Delete(Eq("ProcedureID", Int(1000))); err != nil {
		t.Fatal(err)
	}
	indexed, _ = tab.Lookup("Smoking", Str("Current"))
	if len(indexed) != len(scanned) {
		t.Error("index stale after delete")
	}
	if err := tab.CreateIndex("Nope"); err == nil {
		t.Error("index on missing column must fail")
	}
}

// TestTableSelectUsesIndex: Select over an indexed equality returns the same
// rows as a full scan, with and without residual conjuncts, mirrored
// literals, and non-indexed fallbacks.
func TestTableSelectUsesIndex(t *testing.T) {
	tab := NewTable("T", procSchema(t))
	for i := 0; i < 200; i++ {
		status := []string{"None", "Current", "Previous"}[i%3]
		if err := tab.Insert(Row{Int(int64(i)), Str(status), Float(float64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex("Smoking"); err != nil {
		t.Fatal(err)
	}
	preds := []Pred{
		Eq("Smoking", Str("Current")),
		Cmp(CmpEq, Lit(Str("Current")), Col("Smoking")), // mirrored
		And(Eq("Smoking", Str("Current")), Cmp(CmpGt, Col("PacksPerDay"), Lit(Float(3)))),
		And(Cmp(CmpLt, Col("ProcedureID"), Lit(Int(50))), Eq("Smoking", Str("None"))),
		Eq("PacksPerDay", Float(2)),                                   // not indexed: scan
		Or(Eq("Smoking", Str("None")), Eq("Smoking", Str("Current"))), // OR: scan
		Eq("Smoking", Null()),                                         // NULL probe: scan
	}
	for i, p := range preds {
		fast, err := tab.Select(p)
		if err != nil {
			t.Fatalf("pred %d: %v", i, err)
		}
		slow, err := Select(tab.Rows(), p)
		if err != nil {
			t.Fatalf("pred %d: %v", i, err)
		}
		if !fast.EqualUnordered(slow) {
			t.Errorf("pred %d: indexed select differs (%d vs %d rows)", i, fast.Len(), slow.Len())
		}
	}
}

func TestTableTruncate(t *testing.T) {
	tab := NewTable("T", procSchema(t))
	if err := tab.Insert(Row{Int(1), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("ProcedureID"); err != nil {
		t.Fatal(err)
	}
	tab.Truncate()
	if tab.Len() != 0 {
		t.Error("truncate left rows")
	}
	rows, _ := tab.Lookup("ProcedureID", Int(1))
	if len(rows) != 0 {
		t.Error("index stale after truncate")
	}
}

func TestDBLifecycle(t *testing.T) {
	db := NewDB("cori")
	s := procSchema(t)
	if _, err := db.CreateTable("P", s); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("P", s); err == nil {
		t.Fatal("duplicate table must fail")
	}
	if _, err := db.Table("P"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("Q"); err == nil {
		t.Fatal("missing table must fail")
	}
	if _, err := db.EnsureTable("P", s); err != nil {
		t.Fatal(err)
	}
	other := MustSchema(Column{Name: "X", Type: KindInt})
	if _, err := db.EnsureTable("P", other); err == nil {
		t.Fatal("EnsureTable with different schema must fail")
	}
	if _, err := db.CreateTable("A", s); err != nil {
		t.Fatal(err)
	}
	names := db.TableNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "P" {
		t.Errorf("TableNames = %v", names)
	}
	if err := db.Drop("A"); err != nil {
		t.Fatal(err)
	}
	if db.Has("A") {
		t.Error("dropped table still present")
	}
	if err := db.Drop("A"); err == nil {
		t.Error("double drop must fail")
	}
}

func TestTableConcurrentAccess(t *testing.T) {
	tab := NewTable("T", procSchema(t))
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				if err := tab.Insert(Row{Int(int64(g*1000 + i)), Str("Current"), Float(1)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
		go func() {
			for i := 0; i < 50; i++ {
				tab.Scan(func(Row) bool { return true })
				tab.Len()
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if tab.Len() != 200 {
		t.Errorf("Len = %d, want 200", tab.Len())
	}
}

// TestIndexProbeFindsNegativeZero: -0.0 Equals 0, so an index probe for 0
// must find a stored -0.0 exactly as a scan does.
func TestIndexProbeFindsNegativeZero(t *testing.T) {
	s := MustSchema(Column{Name: "F", Type: KindFloat})
	for _, indexed := range []bool{false, true} {
		tab := NewTable("T", s)
		if indexed {
			if err := tab.CreateIndex("F"); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.Insert(Row{Float(math.Copysign(0, -1))}); err != nil {
			t.Fatal(err)
		}
		for _, pred := range []Pred{Eq("F", Int(0)), In(Col("F"), Int(0))} {
			got, err := tab.Select(pred)
			if err != nil || got.Len() != 1 {
				t.Errorf("indexed=%v: Select %s = %v rows (err %v), want 1", indexed, pred.SQL(), got.Len(), err)
			}
		}
		if got, err := tab.Lookup("F", Float(0)); err != nil || len(got) != 1 {
			t.Errorf("indexed=%v: Lookup(F, 0) = %d rows (err %v), want 1", indexed, len(got), err)
		}
	}
}
