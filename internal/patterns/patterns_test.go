package patterns

import (
	"context"
	"sort"
	"strings"
	"testing"

	"guava/internal/relstore"
	"guava/internal/ui"
)

// testForm returns a FormInfo covering every column kind, with sample rows.
func testForm(t *testing.T) (FormInfo, []relstore.Row) {
	t.Helper()
	schema := relstore.MustSchema(
		relstore.Column{Name: "ProcedureID", Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "Smoking", Type: relstore.KindString},
		relstore.Column{Name: "PacksPerDay", Type: relstore.KindFloat},
		relstore.Column{Name: "Hypoxia", Type: relstore.KindBool},
		relstore.Column{Name: "Alcohol", Type: relstore.KindString},
		relstore.Column{Name: "Age", Type: relstore.KindInt},
	)
	form := FormInfo{Name: "Procedure", KeyColumn: "ProcedureID", Schema: schema}
	rows := []relstore.Row{
		{relstore.Int(1), relstore.Str("Current"), relstore.Float(2), relstore.Bool(true), relstore.Str("Light"), relstore.Int(61)},
		{relstore.Int(2), relstore.Str("None"), relstore.Float(0), relstore.Bool(false), relstore.Str("None"), relstore.Int(45)},
		{relstore.Int(3), relstore.Null(), relstore.Null(), relstore.Null(), relstore.Null(), relstore.Null()},
		{relstore.Int(4), relstore.Str("Previous"), relstore.Float(1.5), relstore.Bool(false), relstore.Str("Heavy"), relstore.Int(70)},
		{relstore.Int(5), relstore.Str("Current"), relstore.Float(5), relstore.Bool(true), relstore.Str(""), relstore.Int(33)},
	}
	return form, rows
}

// roundTrip installs the stack, writes the rows, reads them back, and checks
// multiset equality with the input — the bidirectionality contract of every
// pattern in Table 1.
func roundTrip(t *testing.T, stack *Stack) {
	t.Helper()
	form, rows := testForm(t)
	db := relstore.NewDB("contrib")
	if err := stack.Install(db, form); err != nil {
		t.Fatalf("%s: install: %v", stack.Describe(), err)
	}
	for _, r := range rows {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatalf("%s: write %v: %v", stack.Describe(), r, err)
		}
	}
	got, err := stack.Read(db, form)
	if err != nil {
		t.Fatalf("%s: read: %v", stack.Describe(), err)
	}
	want := &relstore.Rows{Schema: form.Schema, Data: rows}
	if !got.EqualUnordered(want) {
		t.Fatalf("%s: round trip mismatch\ngot:\n%s\nwant:\n%s", stack.Describe(), got.Format(), want.Format())
	}
}

// allStacks enumerates a representative set of pattern stacks: every layout
// alone, every transform over Naive, and deep compositions. It is the one
// fixture of the round-trip, query, pushdown and key-scope tests.
func allStacks(t *testing.T) map[string]*Stack {
	t.Helper()
	form, _ := testForm(t)
	merge := func() *Merge {
		m, err := NewMerge("AllForms", "FormName", []FormInfo{form})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return map[string]*Stack{
		"naive":   NewStack(Naive{}),
		"merge":   NewStack(merge()),
		"split":   NewStack(&Split{}),
		"splitx":  NewStack(&Split{Parts: [][]string{{"Smoking", "PacksPerDay", "Hypoxia"}, {"Alcohol"}, {"Age"}}}),
		"generic": NewStack(Generic{}),
		"part":    NewStack(&Partitioned{Base: Naive{}, N: 3}),
		"partgen": NewStack(&Partitioned{Base: Generic{}, N: 2}),
		"sparse":  NewStack(SparseWide{Slots: 8}),
		"multi":   NewStack(MultiValued{Columns: []string{"Smoking", "Alcohol"}}),

		"audit":    NewStack(Naive{}, &Audit{}),
		"rename":   NewStack(Naive{}, &Rename{Physical: map[string]string{"Smoking": "fld_0107", "ProcedureID": "pk", "Hypoxia": "fld_0221", "Age": "fld_9"}}),
		"encode":   NewStack(Naive{}, &Encode{}),
		"sentinel": NewStack(Naive{}, &Sentinel{}),
		"lookup":   NewStack(Naive{}, &Lookup{Columns: []string{"Smoking", "Alcohol"}}),
		"delim":    NewStack(Naive{}, &Delimited{Into: "packed", Columns: []string{"Smoking", "Alcohol"}}),

		"vendor": NewStack(Generic{},
			&Audit{},
			&Rename{Physical: map[string]string{"Smoking": "fld_0107"}},
			&Encode{TrueCode: "1", FalseCode: "0"},
		),
		"legacy": NewStack(&Split{},
			&Audit{},
			&Sentinel{},
		),
		"deepnaive": NewStack(Naive{}, &Audit{}, &Rename{Physical: map[string]string{"Smoking": "s"}}, &Encode{}),
		"deep": NewStack(&Partitioned{Base: &Split{}, N: 2},
			&Audit{},
			&Rename{Physical: map[string]string{"Alcohol": "etoh"}},
			&Lookup{Columns: []string{"Smoking"}},
			&Encode{},
		),
		"sparseaudit": NewStack(SparseWide{Slots: 10}, &Audit{}),
		"multirename": NewStack(MultiValued{Columns: []string{"Alcohol"}},
			&Rename{Physical: map[string]string{"Smoking": "fld_0107"}},
		),
	}
}

// TestTable1PatternsRoundTrip is the Experiment T1 core: every pattern and
// composition reconstructs the naive relation exactly.
func TestTable1PatternsRoundTrip(t *testing.T) {
	for name, stack := range allStacks(t) {
		stack := stack
		t.Run(name, func(t *testing.T) { roundTrip(t, stack) })
	}
}

func TestStackDescribe(t *testing.T) {
	s := NewStack(Generic{}, &Audit{}, &Encode{})
	if got := s.Describe(); got != "Audit ∘ Encode ∘ Generic" {
		t.Errorf("Describe = %q", got)
	}
	for name, stack := range allStacks(t) {
		if stack.Layout.Describe() == "" || stack.Layout.Name() == "" {
			t.Errorf("%s: layout must self-describe", name)
		}
		for _, tr := range stack.Transforms {
			if tr.Describe() == "" || tr.Name() == "" {
				t.Errorf("%s: transform must self-describe", name)
			}
		}
	}
}

func TestStackQuery(t *testing.T) {
	form, rows := testForm(t)
	for name, stack := range allStacks(t) {
		db := relstore.NewDB("contrib")
		if err := stack.Install(db, form); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range rows {
			if err := stack.WriteRow(db, form, r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		res, err := stack.QueryWithInfo(db, form,
			relstore.Eq("Smoking", relstore.Str("Current")),
			[]string{"ProcedureID", "PacksPerDay"})
		if err != nil {
			t.Fatalf("%s: query: %v", name, err)
		}
		got := res.Rows
		if got.Len() != 2 {
			t.Errorf("%s: query returned %d rows, want 2", name, got.Len())
		}
		if got.Schema.NameList() != "ProcedureID, PacksPerDay" {
			t.Errorf("%s: query schema = %s", name, got.Schema.NameList())
		}
	}
}

func TestStackUpdate(t *testing.T) {
	form, rows := testForm(t)
	for name, stack := range allStacks(t) {
		// Delimited rejects updates of packed columns; tested separately.
		if strings.Contains(name, "delim") {
			continue
		}
		db := relstore.NewDB("contrib")
		if err := stack.Install(db, form); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range rows {
			if err := stack.WriteRow(db, form, r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		n, err := stack.Update(db, form, relstore.Int(4), "Smoking", relstore.Str("Current"))
		if err != nil {
			t.Fatalf("%s: update: %v", name, err)
		}
		if n != 1 {
			t.Fatalf("%s: update touched %d records, want 1", name, n)
		}
		res, err := stack.QueryWithInfo(db, form, relstore.Eq("ProcedureID", relstore.Int(4)), []string{"Smoking"})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows; got.Len() != 1 || !got.Data[0][0].Equal(relstore.Str("Current")) {
			t.Errorf("%s: after update row = %v", name, got.Data)
		}
	}
}

func TestDelimitedRejectsPackedUpdate(t *testing.T) {
	form, rows := testForm(t)
	stack := NewStack(Naive{}, &Delimited{Into: "packed", Columns: []string{"Smoking", "Alcohol"}})
	db := relstore.NewDB("contrib")
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	if err := stack.WriteRow(db, form, rows[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := stack.Update(db, form, relstore.Int(1), "Smoking", relstore.Str("None")); err == nil {
		t.Error("updating a packed column must fail")
	}
	// Non-packed columns still update.
	if _, err := stack.Update(db, form, relstore.Int(1), "Age", relstore.Int(62)); err != nil {
		t.Errorf("non-packed update failed: %v", err)
	}
}

// TestAuditDeprecate exercises the Audit pattern's deprecation semantics
// across different inner layouts: deprecated rows stay in physical storage
// but vanish from the g-tree view.
func TestAuditDeprecate(t *testing.T) {
	form, rows := testForm(t)
	stacks := map[string]*Stack{
		"audit+naive":   NewStack(Naive{}, &Audit{}),
		"audit+generic": NewStack(Generic{}, &Audit{}),
		"audit+split":   NewStack(&Split{}, &Audit{}),
		"audit+deep":    NewStack(Generic{}, &Audit{}, &Rename{Physical: map[string]string{"Smoking": "s"}}, &Encode{}),
	}
	for name, stack := range stacks {
		db := relstore.NewDB("contrib")
		if err := stack.Install(db, form); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range rows {
			if err := stack.WriteRow(db, form, r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		n, err := stack.Deprecate(db, form, relstore.Int(2))
		if err != nil {
			t.Fatalf("%s: deprecate: %v", name, err)
		}
		if n != 1 {
			t.Fatalf("%s: deprecate touched %d, want 1", name, n)
		}
		got, err := stack.Read(db, form)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != len(rows)-1 {
			t.Errorf("%s: read %d rows after deprecation, want %d", name, got.Len(), len(rows)-1)
		}
		for _, r := range got.Data {
			if r[0].Equal(relstore.Int(2)) {
				t.Errorf("%s: deprecated record still visible", name)
			}
		}
	}
	// A stack without Audit cannot deprecate.
	plain := NewStack(Naive{})
	db := relstore.NewDB("x")
	if err := plain.Install(db, form); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Deprecate(db, form, relstore.Int(1)); err == nil {
		t.Error("deprecate without Audit must fail")
	}
}

func TestGenericPhysicalShape(t *testing.T) {
	form, rows := testForm(t)
	stack := NewStack(Generic{})
	db := relstore.NewDB("contrib")
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	eav, err := db.Table("Procedure_eav")
	if err != nil {
		t.Fatal(err)
	}
	// Non-null values: row1 has 5, row2 has 5, row3 has 0, row4 has 5, row5 has 5.
	if eav.Len() != 20 {
		t.Errorf("EAV rows = %d, want 20", eav.Len())
	}
	ents, err := db.Table("Procedure_entities")
	if err != nil {
		t.Fatal(err)
	}
	if ents.Len() != 5 {
		t.Errorf("entity rows = %d, want 5", ents.Len())
	}
	// The all-NULL record (3) survives the read via the entity anchor.
	got, _ := stack.Read(db, form)
	found := false
	for _, r := range got.Data {
		if r[0].Equal(relstore.Int(3)) {
			found = true
			for _, v := range r[1:] {
				if !v.IsNull() {
					t.Errorf("record 3 must be all NULL, got %v", r)
				}
			}
		}
	}
	if !found {
		t.Error("all-NULL record lost by EAV round trip")
	}
}

func TestMergeSharedTable(t *testing.T) {
	procForm, procRows := testForm(t)
	findingSchema := relstore.MustSchema(
		relstore.Column{Name: "ProcedureID", Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "Size", Type: relstore.KindInt},
		relstore.Column{Name: "Smoking", Type: relstore.KindString}, // shared name, same type
	)
	findingForm := FormInfo{Name: "Finding", KeyColumn: "ProcedureID", Schema: findingSchema}
	m, err := NewMerge("AllForms", "FormName", []FormInfo{procForm, findingForm})
	if err != nil {
		t.Fatal(err)
	}
	stack := NewStack(m)
	db := relstore.NewDB("contrib")
	if err := stack.Install(db, procForm); err != nil {
		t.Fatal(err)
	}
	if err := stack.Install(db, findingForm); err != nil {
		t.Fatal(err)
	}
	for _, r := range procRows {
		if err := stack.WriteRow(db, procForm, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := stack.WriteRow(db, findingForm, relstore.Row{relstore.Int(1), relstore.Int(12), relstore.Str("n/a")}); err != nil {
		t.Fatal(err)
	}
	// One physical table holds everything.
	shared, err := db.Table("AllForms")
	if err != nil {
		t.Fatal(err)
	}
	if shared.Len() != len(procRows)+1 {
		t.Errorf("shared table rows = %d", shared.Len())
	}
	// Reads separate by discriminator.
	proc, err := stack.Read(db, procForm)
	if err != nil {
		t.Fatal(err)
	}
	if proc.Len() != len(procRows) {
		t.Errorf("proc rows = %d", proc.Len())
	}
	find, err := stack.Read(db, findingForm)
	if err != nil {
		t.Fatal(err)
	}
	if find.Len() != 1 || !find.Data[0][1].Equal(relstore.Int(12)) {
		t.Errorf("finding rows = %v", find.Data)
	}
}

// TestMergeStackWithTransforms covers the composition trap NewMergeStack
// exists for: transforms like Audit change the schemas the Merge layout must
// be built from.
func TestMergeStackWithTransforms(t *testing.T) {
	form, rows := testForm(t)
	other := FormInfo{Name: "Note", KeyColumn: "ProcedureID", Schema: relstore.MustSchema(
		relstore.Column{Name: "ProcedureID", Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "Text", Type: relstore.KindString},
	)}
	stack, err := NewMergeStack("Shared", "Kind", []Transform{&Audit{}, &Encode{}}, form, other)
	if err != nil {
		t.Fatal(err)
	}
	db := relstore.NewDB("x")
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	if err := stack.Install(db, other); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := stack.WriteRow(db, other, relstore.Row{relstore.Int(1), relstore.Str("note text")}); err != nil {
		t.Fatal(err)
	}
	got, err := stack.Read(db, form)
	if err != nil {
		t.Fatal(err)
	}
	want := &relstore.Rows{Schema: form.Schema, Data: rows}
	if !got.EqualUnordered(want) {
		t.Errorf("merge-stack round trip failed:\n%s", got.Format())
	}
	// Deprecation works through the shared table too.
	if _, err := stack.Deprecate(db, form, relstore.Int(1)); err != nil {
		t.Fatal(err)
	}
	got, _ = stack.Read(db, form)
	if got.Len() != len(rows)-1 {
		t.Errorf("rows after deprecate = %d", got.Len())
	}
	// The other form is untouched.
	notes, err := stack.Read(db, other)
	if err != nil || notes.Len() != 1 {
		t.Errorf("notes = %v, %v", notes, err)
	}
	// Constructor propagates transform errors.
	if _, err := NewMergeStack("T", "D", []Transform{&Encode{TrueCode: "X", FalseCode: "X"}}, form); err == nil {
		t.Error("bad transform must fail")
	}
}

func TestMergeValidation(t *testing.T) {
	form, _ := testForm(t)
	if _, err := NewMerge("T", "D", nil); err == nil {
		t.Error("merge of no forms must fail")
	}
	conflicting := FormInfo{Name: "Other", KeyColumn: "ProcedureID", Schema: relstore.MustSchema(
		relstore.Column{Name: "ProcedureID", Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "Smoking", Type: relstore.KindInt}, // conflicts: string elsewhere
	)}
	if _, err := NewMerge("T", "D", []FormInfo{form, conflicting}); err == nil {
		t.Error("conflicting column types must fail")
	}
	otherKey := FormInfo{Name: "K", KeyColumn: "OtherID", Schema: relstore.MustSchema(
		relstore.Column{Name: "OtherID", Type: relstore.KindInt, NotNull: true},
	)}
	if _, err := NewMerge("T", "D", []FormInfo{form, otherKey}); err == nil {
		t.Error("mismatched key columns must fail")
	}
	m, err := NewMerge("T", "D", []FormInfo{form})
	if err != nil {
		t.Fatal(err)
	}
	db := relstore.NewDB("x")
	unknown := FormInfo{Name: "Unknown", KeyColumn: "ProcedureID", Schema: form.Schema}
	if err := m.Install(db, unknown); err == nil {
		t.Error("installing an unknown form must fail")
	}
}

func TestSplitValidation(t *testing.T) {
	form, _ := testForm(t)
	db := relstore.NewDB("x")
	bad := []*Split{
		{Parts: [][]string{{"Smoking"}}}, // misses columns
		{Parts: [][]string{{"Smoking", "Smoking"}, {"PacksPerDay", "Hypoxia", "Alcohol", "Age"}}},     // duplicate
		{Parts: [][]string{{"Nope"}, {"Smoking", "PacksPerDay", "Hypoxia", "Alcohol", "Age"}}},        // unknown
		{Parts: [][]string{{"ProcedureID"}, {"Smoking", "PacksPerDay", "Hypoxia", "Alcohol", "Age"}}}, // key in part
	}
	for i, s := range bad {
		if err := s.Install(db, form); err == nil {
			t.Errorf("bad split %d must fail install", i)
		}
	}
}

func TestSentinelCollisionDetected(t *testing.T) {
	form, _ := testForm(t)
	stack := NewStack(Naive{}, &Sentinel{IntCode: 61}) // collides with Age 61
	db := relstore.NewDB("x")
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	row := relstore.Row{relstore.Int(1), relstore.Null(), relstore.Null(), relstore.Null(), relstore.Null(), relstore.Int(61)}
	if err := stack.WriteRow(db, form, row); err == nil {
		t.Error("sentinel collision must be detected at write time")
	}
}

func TestEncodeRejectsUnknownCode(t *testing.T) {
	form, _ := testForm(t)
	e := &Encode{}
	inner, err := e.Adapt(form)
	if err != nil {
		t.Fatal(err)
	}
	rows := &relstore.Rows{Schema: inner.Schema, Data: []relstore.Row{
		{relstore.Int(1), relstore.Null(), relstore.Null(), relstore.Str("WAT"), relstore.Null(), relstore.Null()},
	}}
	if _, err := e.Decode(nil, form, inner, rows); err == nil {
		t.Error("unknown boolean code must fail decode")
	}
	if _, err := (&Encode{TrueCode: "X", FalseCode: "X"}).Adapt(form); err == nil {
		t.Error("identical true/false codes must fail")
	}
}

func TestLookupTablesPopulated(t *testing.T) {
	form, rows := testForm(t)
	stack := NewStack(Naive{}, &Lookup{Columns: []string{"Smoking"}})
	db := relstore.NewDB("x")
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	dim, err := db.Table("Procedure_Smoking_lookup")
	if err != nil {
		t.Fatal(err)
	}
	// Distinct labels: Current, None, Previous.
	if dim.Len() != 3 {
		t.Errorf("lookup rows = %d, want 3", dim.Len())
	}
	// Codes are stable: writing the same label twice reuses the code.
	fact, err := db.Table("Procedure")
	if err != nil {
		t.Fatal(err)
	}
	codes := map[string]bool{}
	fact.Scan(func(r relstore.Row) bool {
		v := r[fact.Schema().Index("Smoking")]
		if !v.IsNull() {
			codes[v.String()] = true
		}
		return true
	})
	if len(codes) != 3 {
		t.Errorf("distinct codes in fact table = %d, want 3", len(codes))
	}
}

func TestLookupValidation(t *testing.T) {
	form, _ := testForm(t)
	if _, err := (&Lookup{Columns: []string{"Age"}}).Adapt(form); err == nil {
		t.Error("coding a non-string column must fail")
	}
	if _, err := (&Lookup{Columns: []string{"Nope"}}).Adapt(form); err == nil {
		t.Error("coding an unknown column must fail")
	}
}

func TestDelimitedEdgeCases(t *testing.T) {
	form, _ := testForm(t)
	stack := NewStack(Naive{}, &Delimited{Into: "packed", Columns: []string{"Smoking", "Alcohol"}})
	db := relstore.NewDB("x")
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	tricky := []relstore.Row{
		// Values containing the separator, backslashes, empty strings, NULLs.
		{relstore.Int(1), relstore.Str("a;b"), relstore.Null(), relstore.Null(), relstore.Str(`c\;d`), relstore.Null()},
		{relstore.Int(2), relstore.Str(""), relstore.Null(), relstore.Null(), relstore.Str("x"), relstore.Null()},
		{relstore.Int(3), relstore.Null(), relstore.Null(), relstore.Null(), relstore.Null(), relstore.Null()},
		{relstore.Int(4), relstore.Null(), relstore.Null(), relstore.Null(), relstore.Str(`\e`), relstore.Null()},
	}
	for _, r := range tricky {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := stack.Read(db, form)
	if err != nil {
		t.Fatal(err)
	}
	want := &relstore.Rows{Schema: form.Schema, Data: tricky}
	if !got.EqualUnordered(want) {
		t.Errorf("delimited round trip:\n%s\nwant:\n%s", got.Format(), want.Format())
	}
}

func TestDelimitedValidation(t *testing.T) {
	form, _ := testForm(t)
	bad := []*Delimited{
		{Into: "p", Columns: []string{"Smoking"}},              // too few
		{Into: "", Columns: []string{"Smoking", "Alcohol"}},    // no target
		{Into: "p", Columns: []string{"Smoking", "Age"}},       // non-string
		{Into: "p", Columns: []string{"Smoking", "Nope"}},      // unknown
		{Into: "Age", Columns: []string{"Smoking", "Alcohol"}}, // collides
	}
	for i, d := range bad {
		if _, err := d.Adapt(form); err == nil {
			t.Errorf("bad delimited %d must fail", i)
		}
	}
}

func TestPartitionedRouting(t *testing.T) {
	form, rows := testForm(t)
	stack := NewStack(&Partitioned{Base: Naive{}, N: 2})
	db := relstore.NewDB("x")
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	p0, err := db.Table("Procedure_p0")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := db.Table("Procedure_p1")
	if err != nil {
		t.Fatal(err)
	}
	if p0.Len() != 2 || p1.Len() != 3 { // keys 2,4 vs 1,3,5
		t.Errorf("partition sizes = %d/%d, want 2/3", p0.Len(), p1.Len())
	}
	if err := NewStack(&Partitioned{Base: Naive{}, N: 0}).Install(relstore.NewDB("y"), form); err == nil {
		t.Error("N=0 must fail")
	}
}

func TestAuditColumnCollision(t *testing.T) {
	schema := relstore.MustSchema(
		relstore.Column{Name: "ID", Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "_deleted", Type: relstore.KindInt},
	)
	form := FormInfo{Name: "F", KeyColumn: "ID", Schema: schema}
	if _, err := (&Audit{}).Adapt(form); err == nil {
		t.Error("audit column collision must fail")
	}
}

func TestPhysicalTables(t *testing.T) {
	form, _ := testForm(t)
	cases := map[string][]string{}
	stacks := allStacks(t)
	cases["naive"] = []string{"Procedure"}
	cases["generic"] = []string{"Procedure_eav", "Procedure_entities"}
	cases["part"] = []string{"Procedure_p0", "Procedure_p1", "Procedure_p2"}
	cases["lookup"] = []string{"Procedure", "Procedure_Alcohol_lookup", "Procedure_Smoking_lookup"}
	for name, want := range cases {
		got, err := stacks[name].PhysicalTables(form)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: physical tables = %v, want %v", name, got, want)
		}
	}
}

func TestSinkWritesThroughUIForm(t *testing.T) {
	f := &ui.Form{Name: "Visit", KeyColumn: "VisitID", Controls: []*ui.Control{
		{Name: "Reason", Kind: ui.TextBox, Question: "Reason for visit?"},
		{Name: "Urgent", Kind: ui.CheckBox, Question: "Urgent?"},
	}}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	info, err := FromUIForm(f)
	if err != nil {
		t.Fatal(err)
	}
	db := relstore.NewDB("contrib")
	stack := NewStack(Generic{}, &Audit{})
	if err := stack.Install(db, info); err != nil {
		t.Fatal(err)
	}
	sink := &Sink{DB: db, Stack: stack}
	e, err := ui.NewEntry(f, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Set("Reason", relstore.Str("screening")); err != nil {
		t.Fatal(err)
	}
	if err := e.Set("Urgent", relstore.Bool(false)); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(sink); err != nil {
		t.Fatal(err)
	}
	got, err := stack.Read(db, info)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("rows = %d", got.Len())
	}
	if !got.Data[0].Equal(relstore.Row{relstore.Int(7), relstore.Str("screening"), relstore.Bool(false)}) {
		t.Errorf("row = %v", got.Data[0])
	}
}

// TestLayoutMiscCoverage exercises remaining layout surface: physical-table
// listings, custom audit/sentinel/delimiter parameters, update errors, and
// the partitioned key-type guard.
func TestLayoutMiscCoverage(t *testing.T) {
	form, rows := testForm(t)

	// Custom audit column, delimiter, and sentinel codes round-trip.
	custom := NewStack(Naive{},
		&Audit{Column: "rec_status"},
		&Delimited{Into: "pk", Columns: []string{"Smoking", "Alcohol"}, Sep: "||"},
		&Sentinel{IntCode: -1, FloatCode: -2.5, StringCode: "~none~"},
	)
	db := relstore.NewDB("x")
	if err := custom.Install(db, form); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := custom.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := custom.Read(db, form)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualUnordered(&relstore.Rows{Schema: form.Schema, Data: rows}) {
		t.Error("custom-parameter stack round trip failed")
	}
	if _, err := custom.Deprecate(db, form, relstore.Int(1)); err != nil {
		t.Fatal(err)
	}

	// Merge physical tables.
	m, err := NewMerge("Shared", "D", []FormInfo{form})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PhysicalTables(form); len(got) != 1 || got[0] != "Shared" {
		t.Errorf("merge tables = %v", got)
	}
	// Merge read of a missing physical table errors.
	if _, _, err := m.Read(context.Background(), relstore.NewDB("empty"), form, nil, nil); err == nil {
		t.Error("merge read without install must fail")
	}
	// Merge update on an unknown column errors.
	mdb := relstore.NewDB("m")
	if err := m.Install(mdb, form); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(mdb, form, relstore.Int(1), "Nope", relstore.Null()); err == nil {
		t.Error("merge update on unknown column must fail")
	}

	// Split physical tables.
	sp := &Split{}
	if got := sp.PhysicalTables(form); len(got) != 3 {
		t.Errorf("split tables = %v", got)
	}
	if got := (&Split{Parts: [][]string{{"Nope"}}}).PhysicalTables(form); got != nil {
		t.Errorf("invalid split must list nothing, got %v", got)
	}

	// Partitioned rejects non-integer keys.
	p := &Partitioned{Base: Naive{}, N: 2}
	pdb := relstore.NewDB("p")
	if err := p.Install(pdb, form); err != nil {
		t.Fatal(err)
	}
	badKey := relstore.Row{relstore.Str("k"), relstore.Null(), relstore.Null(), relstore.Null(), relstore.Null(), relstore.Null()}
	if err := p.Write(pdb, form, badKey); err == nil {
		t.Error("string key must fail partition routing")
	}
	// Negative keys route to a valid partition.
	neg := relstore.Row{relstore.Int(-7), relstore.Null(), relstore.Null(), relstore.Null(), relstore.Null(), relstore.Null()}
	if err := p.Write(pdb, form, neg); err != nil {
		t.Errorf("negative key: %v", err)
	}
	if _, err := p.Update(pdb, form, relstore.Int(-7), "Age", relstore.Int(1)); err != nil {
		t.Errorf("negative key update: %v", err)
	}

	// Generic update guards.
	g := Generic{}
	gdb := relstore.NewDB("g")
	if err := g.Install(gdb, form); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Update(gdb, form, relstore.Int(1), "ProcedureID", relstore.Int(2)); err == nil {
		t.Error("generic key update must fail")
	}
	if _, err := g.Update(gdb, form, relstore.Int(1), "Nope", relstore.Null()); err == nil {
		t.Error("generic unknown column must fail")
	}
	// Updating an absent entity touches nothing.
	if n, err := g.Update(gdb, form, relstore.Int(99), "Age", relstore.Int(1)); err != nil || n != 0 {
		t.Errorf("absent entity update = %d, %v", n, err)
	}

	// Lookup dangling code detection.
	lk := &Lookup{Columns: []string{"Smoking"}}
	ldb := relstore.NewDB("l")
	lstack := NewStack(Naive{}, lk)
	if err := lstack.Install(ldb, form); err != nil {
		t.Fatal(err)
	}
	if err := lstack.WriteRow(ldb, form, rows[0]); err != nil {
		t.Fatal(err)
	}
	// Corrupt the dimension table: drop all labels.
	dim, err := ldb.Table("Procedure_Smoking_lookup")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dim.Delete(relstore.True); err != nil {
		t.Fatal(err)
	}
	if _, err := lstack.Read(ldb, form); err == nil {
		t.Error("dangling lookup code must fail the read")
	} else if !strings.Contains(err.Error(), "lookup: dangling code 1 in Procedure_Smoking_lookup") {
		t.Errorf("dangling lookup code error = %v", err)
	}
}

func TestConformErrors(t *testing.T) {
	rows := &relstore.Rows{
		Schema: relstore.MustSchema(relstore.Column{Name: "A", Type: relstore.KindString}),
		Data:   []relstore.Row{{relstore.Str("zzz")}},
	}
	target := relstore.MustSchema(relstore.Column{Name: "B", Type: relstore.KindString})
	if _, err := Conform(rows, target); err == nil {
		t.Error("missing column must fail")
	}
	target2 := relstore.MustSchema(relstore.Column{Name: "A", Type: relstore.KindInt})
	if _, err := Conform(rows, target2); err == nil {
		t.Error("uncoercible value must fail")
	}
}
