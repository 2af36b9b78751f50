package etl

import (
	"context"
	"strings"
	"testing"

	"guava/internal/classifier"
	"guava/internal/gtree"
	"guava/internal/patterns"
	"guava/internal/relstore"
	"guava/internal/ui"
)

// contribFixture builds a contributor: a small Procedure form, a pattern
// stack, a populated database, and the derived g-tree.
func contribFixture(t *testing.T, name string, stack *patterns.Stack, records []map[string]relstore.Value) *ContributorPlan {
	t.Helper()
	f := &ui.Form{
		Name: "Procedure", KeyColumn: "ProcedureID",
		Controls: []*ui.Control{
			{Name: "PacksPerDay", Kind: ui.TextBox, Question: "Packs per day", DataType: relstore.KindFloat},
			{Name: "Hypoxia", Kind: ui.CheckBox, Question: "Hypoxia?"},
			{Name: "SurgeryPerformed", Kind: ui.CheckBox, Question: "Surgery?"},
		},
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	tree, err := gtree.Derive(name, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	info, err := patterns.FromUIForm(f)
	if err != nil {
		t.Fatal(err)
	}
	db := relstore.NewDB(name)
	if err := stack.Install(db, info); err != nil {
		t.Fatal(err)
	}
	sink := &patterns.Sink{DB: db, Stack: stack}
	for i, rec := range records {
		e, err := ui.NewEntry(f, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range rec {
			if err := e.Set(k, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Submit(sink); err != nil {
			t.Fatal(err)
		}
	}
	return &ContributorPlan{Name: name, DB: db, Tree: tree, Stack: stack, Form: info}
}

var habitsTarget = classifier.Target{
	Entity: "Procedure", Attribute: "Smoking", Domain: "D3",
	Kind: relstore.KindString, Elements: []string{"None", "Light", "Moderate", "Heavy"},
}

func studyFixture(t *testing.T) *StudySpec {
	t.Helper()
	stackA := patterns.NewStack(patterns.Generic{}, &patterns.Audit{})
	stackB := patterns.NewStack(&patterns.Split{}, &patterns.Encode{})

	recsA := []map[string]relstore.Value{
		{"PacksPerDay": relstore.Float(0), "Hypoxia": relstore.Bool(false), "SurgeryPerformed": relstore.Bool(true)},
		{"PacksPerDay": relstore.Float(3), "Hypoxia": relstore.Bool(true), "SurgeryPerformed": relstore.Bool(true)},
		{"PacksPerDay": relstore.Float(7), "Hypoxia": relstore.Bool(true), "SurgeryPerformed": relstore.Bool(false)},
	}
	recsB := []map[string]relstore.Value{
		{"PacksPerDay": relstore.Float(1), "Hypoxia": relstore.Bool(false), "SurgeryPerformed": relstore.Bool(true)},
		{"Hypoxia": relstore.Bool(true), "SurgeryPerformed": relstore.Bool(true)}, // packs unanswered
	}
	ca := contribFixture(t, "clinicA", stackA, recsA)
	cb := contribFixture(t, "clinicB", stackB, recsB)

	entity, err := classifier.ParseEntity("Relevant", "surgery only", "Procedure",
		"Procedure <- Procedure AND SurgeryPerformed = TRUE")
	if err != nil {
		t.Fatal(err)
	}
	habits, err := classifier.Parse("Habits (Cancer)", "", habitsTarget, `
None     <- PacksPerDay = 0
Light    <- 0 < PacksPerDay < 2
Moderate <- 2 <= PacksPerDay < 5
Heavy    <- PacksPerDay >= 5
`)
	if err != nil {
		t.Fatal(err)
	}
	hypoxia, err := classifier.Parse("Hypoxia passthrough", "", classifier.Target{
		Entity: "Procedure", Attribute: "Hypoxia", Domain: "D1", Kind: relstore.KindBool,
	}, "Hypoxia <- TRUE")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*ContributorPlan{ca, cb} {
		c.Entity = entity
		c.Classifiers = map[string]*classifier.Classifier{
			"Smoking_D3": habits,
			"Hypoxia_D1": hypoxia,
		}
	}
	return &StudySpec{
		Name: "exsmoker",
		Columns: []ColumnSpec{
			{As: "Smoking_D3", Attribute: "Smoking", Domain: "D3", Kind: relstore.KindString},
			{As: "Hypoxia_D1", Attribute: "Hypoxia", Domain: "D1", Kind: relstore.KindBool},
		},
		Contributors: []*ContributorPlan{ca, cb},
	}
}

// TestFigure6Compile checks the compiled workflow's three-stage shape and
// its execution result.
func TestFigure6Compile(t *testing.T) {
	spec := studyFixture(t)
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Per contributor: extract, select, classify; plus the final union.
	if got := len(compiled.Workflow.Steps); got != 7 {
		t.Errorf("steps = %d, want 7", got)
	}
	plan := compiled.Workflow.Render()
	for _, want := range []string{
		"extract/clinicA", "select/clinicA", "classify/clinicA",
		"extract/clinicB", "load/union",
		"pattern stack [Audit ∘ Generic]",
		"pattern stack [Encode ∘ Split]",
		"CASE WHEN",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}

	rows, err := compiled.Run()
	if err != nil {
		t.Fatal(err)
	}
	// clinicA: records 1,2 pass surgery filter; clinicB: records 1,2.
	if rows.Len() != 4 {
		t.Fatalf("study rows = %d, want 4\n%s", rows.Len(), rows.Format())
	}
	if rows.Schema.NameList() != "EntityKey, Contributor, Smoking_D3, Hypoxia_D1" {
		t.Errorf("schema = %s", rows.Schema.NameList())
	}
	// Row (clinicA, 1): packs 0 -> None.
	if !rows.Data[0].Equal(relstore.Row{relstore.Int(1), relstore.Str("clinicA"), relstore.Str("None"), relstore.Bool(false)}) {
		t.Errorf("row 0 = %v", rows.Data[0])
	}
	// Row (clinicB, 2): packs unanswered -> NULL classification.
	last := rows.Data[3]
	if !last[0].Equal(relstore.Int(2)) || !last[1].Equal(relstore.Str("clinicB")) || !last[2].IsNull() {
		t.Errorf("row 3 = %v", last)
	}
}

// TestHypothesis3Equivalence: the compiled ETL workflow and direct classifier
// evaluation produce identical study outputs, across pattern stacks.
func TestHypothesis3Equivalence(t *testing.T) {
	spec := studyFixture(t)
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	viaETL, err := compiled.Run()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := DirectEval(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !viaETL.EqualUnordered(direct) {
		t.Errorf("ETL and direct evaluation differ:\nETL:\n%s\ndirect:\n%s", viaETL.Format(), direct.Format())
	}
}

func TestStudyCondition(t *testing.T) {
	spec := studyFixture(t)
	// "writes conditions similar to a WHERE clause in SQL to filter out
	// unwanted data": exclude hypoxia cases.
	for _, c := range spec.Contributors {
		c.Condition = "Hypoxia = FALSE"
	}
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := compiled.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows = %d, want 2\n%s", rows.Len(), rows.Format())
	}
	direct, err := DirectEval(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.EqualUnordered(direct) {
		t.Error("condition: ETL and direct evaluation differ")
	}
	// Bad condition fails compilation.
	spec.Contributors[0].Condition = "Nonexistent = 1"
	if _, err := Compile(spec); err == nil {
		t.Error("unknown node in condition must fail compile")
	}
}

func TestCompileValidation(t *testing.T) {
	spec := studyFixture(t)
	// No contributors.
	if _, err := Compile(&StudySpec{Name: "x"}); err == nil {
		t.Error("empty study must fail")
	}
	// Duplicate contributor names.
	dup := *spec
	dup.Contributors = []*ContributorPlan{spec.Contributors[0], spec.Contributors[0]}
	if _, err := Compile(&dup); err == nil {
		t.Error("duplicate contributors must fail")
	}
	// Missing classifier for a column.
	spec2 := studyFixture(t)
	delete(spec2.Contributors[0].Classifiers, "Smoking_D3")
	if _, err := Compile(spec2); err == nil {
		t.Error("missing classifier must fail")
	}
	// Entity classifier in a domain slot.
	spec3 := studyFixture(t)
	spec3.Contributors[0].Classifiers["Smoking_D3"] = spec3.Contributors[0].Entity
	if _, err := Compile(spec3); err == nil {
		t.Error("entity classifier as domain must fail")
	}
	// Domain classifier in the entity slot.
	spec4 := studyFixture(t)
	spec4.Contributors[0].Entity = spec4.Contributors[0].Classifiers["Smoking_D3"]
	if _, err := Compile(spec4); err == nil {
		t.Error("domain classifier as entity must fail")
	}
	// No entity classifier at all.
	spec5 := studyFixture(t)
	spec5.Contributors[0].Entity = nil
	if _, err := Compile(spec5); err == nil {
		t.Error("missing entity classifier must fail")
	}
	// Column without a name.
	spec6 := studyFixture(t)
	spec6.Columns[0].As = ""
	if _, err := Compile(spec6); err == nil {
		t.Error("unnamed column must fail")
	}
}

func TestEmitSQLPlans(t *testing.T) {
	spec := studyFixture(t)
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := compiled.EmitSQLPlans()
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %d", len(plans))
	}
	if !strings.Contains(plans["clinicA"], "FROM Procedure") || !strings.Contains(plans["clinicA"], "AS Smoking_D3") {
		t.Errorf("clinicA plan:\n%s", plans["clinicA"])
	}
}

func TestWorkflowDAG(t *testing.T) {
	mk := func() (*Workflow, *Context) {
		ctx := NewContext(nil)
		src := ctx.DB("src")
		s := relstore.MustSchema(relstore.Column{Name: "K", Type: relstore.KindInt})
		tab, _ := src.CreateTable("T", s)
		for i := 0; i < 4; i++ {
			if err := tab.Insert(relstore.Row{relstore.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		return &Workflow{Name: "w"}, ctx
	}

	// Diamond: a -> b, a -> c, (b,c) -> d.
	w, ctx := mk()
	a := w.Add("a", &Query{From: TableRef{"src", "T"}, To: TableRef{"tmp", "A"}})
	b := w.Add("b", &Query{From: TableRef{"tmp", "A"}, Where: relstore.Cmp(relstore.CmpLt, relstore.Col("K"), relstore.Lit(relstore.Int(2))), To: TableRef{"tmp", "B"}}, a)
	c := w.Add("c", &Query{From: TableRef{"tmp", "A"}, Where: relstore.Cmp(relstore.CmpGe, relstore.Col("K"), relstore.Lit(relstore.Int(2))), To: TableRef{"tmp", "C"}}, a)
	w.Add("d", &Union{From: []TableRef{{"tmp", "B"}, {"tmp", "C"}}, To: TableRef{"out", "D"}}, b, c)
	if _, err := w.Execute(context.Background(), ctx, RunPolicy{}, 1); err != nil {
		t.Fatal(err)
	}
	got, err := ctx.DB("out").Table("D")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Errorf("diamond output = %d rows", got.Len())
	}

	// Cycle detection.
	w2, ctx2 := mk()
	w2.Add("x", &Query{From: TableRef{"src", "T"}, To: TableRef{"tmp", "X"}}, "y")
	w2.Add("y", &Query{From: TableRef{"tmp", "X"}, To: TableRef{"tmp", "Y"}}, "x")
	if _, err := w2.Execute(context.Background(), ctx2, RunPolicy{}, 1); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle must fail: %v", err)
	}

	// Unknown dependency.
	w3, ctx3 := mk()
	w3.Add("x", &Query{From: TableRef{"src", "T"}, To: TableRef{"tmp", "X"}}, "ghost")
	if _, err := w3.Execute(context.Background(), ctx3, RunPolicy{}, 1); err == nil {
		t.Error("unknown dependency must fail")
	}

	// Duplicate IDs.
	w4, ctx4 := mk()
	w4.Add("x", &Query{From: TableRef{"src", "T"}, To: TableRef{"tmp", "X"}})
	w4.Add("x", &Query{From: TableRef{"src", "T"}, To: TableRef{"tmp", "Y"}})
	if _, err := w4.Execute(context.Background(), ctx4, RunPolicy{}, 1); err == nil {
		t.Error("duplicate IDs must fail")
	}

	// Empty step ID.
	w5, ctx5 := mk()
	w5.Add("", &Query{From: TableRef{"src", "T"}, To: TableRef{"tmp", "X"}})
	if _, err := w5.Execute(context.Background(), ctx5, RunPolicy{}, 1); err == nil {
		t.Error("empty ID must fail")
	}
}

func TestComponentErrors(t *testing.T) {
	ctx := NewContext(nil)
	// Query from a missing table.
	q := &Query{From: TableRef{"nope", "T"}, To: TableRef{"out", "X"}}
	if err := q.Run(context.Background(), ctx); err == nil {
		t.Error("missing table must fail")
	}
	// Union with no inputs.
	u := &Union{To: TableRef{"out", "X"}}
	if err := u.Run(context.Background(), ctx); err == nil {
		t.Error("empty union must fail")
	}
	// Extract from unregistered source.
	e := &Extract{SourceDB: "ghost", Stack: patterns.NewStack(patterns.Naive{}),
		Form: patterns.FormInfo{Name: "F", KeyColumn: "K", Schema: relstore.MustSchema(
			relstore.Column{Name: "K", Type: relstore.KindInt, NotNull: true})},
		To: TableRef{"out", "X"}}
	if err := e.Run(context.Background(), ctx); err == nil {
		t.Error("unknown source must fail")
	}
}

func TestJoinStep(t *testing.T) {
	ctx := NewContext(nil)
	db := ctx.DB("d")
	ps := relstore.MustSchema(relstore.Column{Name: "PID", Type: relstore.KindInt})
	fs := relstore.MustSchema(relstore.Column{Name: "PID", Type: relstore.KindInt}, relstore.Column{Name: "Size", Type: relstore.KindInt})
	p, _ := db.CreateTable("P", ps)
	f, _ := db.CreateTable("F", fs)
	_ = p.Insert(relstore.Row{relstore.Int(1)})
	_ = p.Insert(relstore.Row{relstore.Int(2)})
	_ = f.Insert(relstore.Row{relstore.Int(1), relstore.Int(10)})
	j := &JoinStep{Left: TableRef{"d", "P"}, Right: TableRef{"d", "F"}, LeftCol: "PID", RightCol: "PID", RightPrefix: "f", To: TableRef{"d", "J"}}
	if err := j.Run(context.Background(), ctx); err != nil {
		t.Fatal(err)
	}
	out, _ := ctx.DB("d").Table("J")
	if out.Len() != 1 {
		t.Errorf("join rows = %d", out.Len())
	}
	if !strings.Contains(j.Describe(), "JOIN d.F ON d.P.PID = d.F.PID") {
		t.Errorf("describe = %s", j.Describe())
	}
}

func TestQueryOptions(t *testing.T) {
	ctx := NewContext(nil)
	db := ctx.DB("d")
	s := relstore.MustSchema(relstore.Column{Name: "K", Type: relstore.KindInt})
	tab, _ := db.CreateTable("T", s)
	for _, k := range []int64{1, 1, 2} {
		_ = tab.Insert(relstore.Row{relstore.Int(k)})
	}
	q := &Query{From: TableRef{"d", "T"}, Distinct: true, To: TableRef{"d", "U"}}
	if err := q.Run(context.Background(), ctx); err != nil {
		t.Fatal(err)
	}
	u, _ := db.Table("U")
	if u.Len() != 2 {
		t.Errorf("distinct rows = %d", u.Len())
	}
	// Rewriting an existing output table replaces it.
	if err := q.Run(context.Background(), ctx); err != nil {
		t.Fatal(err)
	}
	u, _ = db.Table("U")
	if u.Len() != 2 {
		t.Errorf("rerun rows = %d", u.Len())
	}
	if !strings.Contains(q.Describe(), "SELECT * FROM d.T") {
		t.Errorf("describe = %s", q.Describe())
	}
}
