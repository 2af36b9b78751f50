package guava

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"guava/internal/classifier"
	"guava/internal/etl"
	"guava/internal/gtree"
	"guava/internal/relstore"
	"guava/internal/versioning"
	"guava/internal/workload"
)

const (
	expSeed = 20060101
	expN    = 120
)

func buildContribs(t *testing.T) []*workload.Contributor {
	t.Helper()
	cs, err := workload.BuildAll(expSeed, expN)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// registerAll registers the workload contributors with a fresh system,
// reusing their already-populated databases.
func registerAll(t *testing.T, cs []*workload.Contributor) *System {
	t.Helper()
	sys := New("CORI warehouse")
	for _, c := range cs {
		if _, err := sys.RegisterContributor(c.Name, c.Form, c.Stack, c.DB); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

var habitsTarget = Target{
	Entity: "Procedure", Attribute: "Smoking", Domain: "D3",
	Kind: KindString, Elements: []string{"None", "Light", "Moderate", "Heavy"},
}

// TestArchitectureEndToEnd is Experiment F1: three heterogeneous
// contributors flow through g-trees, classifiers, and generated ETL into two
// different studies, exercising the whole Figure 1 architecture through the
// public facade.
func TestArchitectureEndToEnd(t *testing.T) {
	cs := buildContribs(t)
	sys := registerAll(t, cs)

	if got := sys.ContributorNames(); strings.Join(got, ",") != "CORI,EndoSoft,MedRecord" {
		t.Fatalf("contributors = %v", got)
	}

	habitsCORI := `
None     <- PacksPerDay = 0
Light    <- 0 < PacksPerDay < 2
Moderate <- 2 <= PacksPerDay < 5
Heavy    <- PacksPerDay >= 5
`
	habitsEndo := `
None     <- CigsPerDay = 0
Light    <- 0 < CigsPerDay < 40
Moderate <- 40 <= CigsPerDay < 100
Heavy    <- CigsPerDay >= 100
`
	habitsMed := `
None     <- PacksDaily = 0
Light    <- 0 < PacksDaily < 2
Moderate <- 2 <= PacksDaily < 5
Heavy    <- PacksDaily >= 5
`
	st, err := sys.DefineStudy("habits-overview").
		Column("Smoking_D3", "Smoking", "D3", KindString).
		For("CORI").
		Entity("All CORI procedures", "every report", "Procedure <- Procedure").
		Classify("Smoking_D3", "Habits (Cancer)", "cancer-study thresholds", habitsTarget, habitsCORI).
		Done().
		For("EndoSoft").
		EntityFor("Procedure", "All exams", "every exam", "Procedure <- Exam").
		Classify("Smoking_D3", "Habits (Cancer, cigarettes)", "same thresholds in cigarettes", habitsTarget, habitsEndo).
		Done().
		For("MedRecord").
		EntityFor("Procedure", "All records", "every record", "Procedure <- Record").
		Classify("Smoking_D3", "Habits (Cancer, coded)", "same thresholds", habitsTarget, habitsMed).
		Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	st.Annotate("jlogan", "initial habits overview study", time.Date(2006, 3, 26, 10, 0, 0, 0, time.UTC))

	rows, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3*expN {
		t.Fatalf("study rows = %d, want %d", rows.Len(), 3*expN)
	}

	// Generated ETL ≡ direct evaluation through the facade too.
	direct, err := st.DirectEval()
	if err != nil {
		t.Fatal(err)
	}
	if !rows.EqualUnordered(direct) {
		t.Error("facade: ETL and direct evaluation differ")
	}

	// Classification agrees with ground truth per contributor (units and
	// vocabularies reconciled by the per-contributor classifiers).
	classify := func(packs float64, current bool) string {
		if !current {
			return "" // unanswered packs -> NULL classification
		}
		switch {
		case packs == 0:
			return "None"
		case packs < 2:
			return "Light"
		case packs < 5:
			return "Moderate"
		default:
			return "Heavy"
		}
	}
	truthByKey := map[string]map[int64]string{}
	for _, c := range cs {
		m := map[int64]string{}
		for _, tr := range c.Truths {
			m[tr.ID] = classify(tr.PacksPerDay, tr.Smoking == "Current")
		}
		truthByKey[c.Name] = m
	}
	for _, r := range rows.Data {
		want := truthByKey[r[1].AsString()][r[0].AsInt()]
		if want == "" {
			if !r[2].IsNull() {
				t.Fatalf("%s/%d: classified %v, want NULL", r[1].AsString(), r[0].AsInt(), r[2])
			}
			continue
		}
		if !r[2].Equal(Str(want)) {
			t.Fatalf("%s/%d: classified %v, want %s", r[1].AsString(), r[0].AsInt(), r[2], want)
		}
	}

	// A second study over the same column reuses a classifier.
	reuse := st.Classifiers("Smoking_D3")["CORI"]
	st2, err := sys.DefineStudy("follow-up").
		Column("Smoking_D3", "Smoking", "D3", KindString).
		For("CORI").
		Entity("Surgical only", "surgery cases", "Procedure <- Procedure AND Surgery = TRUE").
		Reuse("Smoking_D3", reuse).
		Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Run(); err != nil {
		t.Fatal(err)
	}
	using := sys.StudiesUsingColumn("Smoking_D3")
	if len(using) != 2 || using["follow-up"]["CORI"] != reuse {
		t.Errorf("classifier reuse not visible across studies: %v", using)
	}

	// Inspection surfaces: plan, SQL, XQuery, Datalog.
	if plan := st.Plan(); !strings.Contains(plan, "extract/CORI") || !strings.Contains(plan, "load/union") {
		t.Errorf("plan:\n%s", plan)
	}
	sqls, err := st.SQL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sqls["EndoSoft"], "CigsPerDay") {
		t.Errorf("EndoSoft SQL:\n%s", sqls["EndoSoft"])
	}
	xq, err := st.XQuery("CORI")
	if err != nil || !strings.Contains(xq, "for $p in") {
		t.Errorf("XQuery: %v\n%s", err, xq)
	}
	dl, err := st.Datalog("MedRecord", "Smoking_D3")
	if err != nil || !strings.Contains(dl, ":-") {
		t.Errorf("Datalog: %v\n%s", err, dl)
	}
	if st.Log.Len() != 1 {
		t.Error("annotation lost")
	}
}

// TestStudy1Funnel is Experiment ST1: the Study 1 funnel over three
// heterogeneous contributors matches ground truth at every stage
// (precision = recall = 1.0 per stage).
func TestStudy1Funnel(t *testing.T) {
	cs := buildContribs(t)
	got, err := Study1(cs)
	if err != nil {
		t.Fatal(err)
	}
	want := Study1Truth(cs)
	if *got != *want {
		t.Fatalf("funnel mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	// The funnel is genuinely a funnel on this workload.
	if !(got.UpperGI >= got.AsthmaIndication && got.AsthmaIndication >= got.Eligible && got.Eligible >= got.TransientHypoxia) {
		t.Errorf("not monotone: %+v", got)
	}
	if got.AsthmaIndication == 0 {
		t.Error("empty cohort; enlarge workload")
	}
	if !strings.Contains(got.Render(), "transient hypoxia") {
		t.Error("render incomplete")
	}
}

// TestStudy2ExSmokerVariants is Experiment ST2: the same study under two
// ex-smoker definitions gives different, correct answers.
func TestStudy2ExSmokerVariants(t *testing.T) {
	cs := buildContribs(t)
	ever, err := Study2(cs, false)
	if err != nil {
		t.Fatal(err)
	}
	recent, err := Study2(cs, true)
	if err != nil {
		t.Fatal(err)
	}
	if *ever == *recent {
		t.Error("the two definitions must give different counts on this workload")
	}
	if recent.ExSmokers > ever.ExSmokers {
		t.Errorf("recent quitters (%d) exceed ever-quitters (%d)", recent.ExSmokers, ever.ExSmokers)
	}
	wantEver := Study2TruthCounts(cs, 0)
	wantRecent := Study2TruthCounts(cs, 1)
	if ever.ExSmokers != wantEver.ExSmokers || ever.WithHypoxia != wantEver.WithHypoxia {
		t.Errorf("ever: got %+v want %+v", ever, wantEver)
	}
	if recent.ExSmokers != wantRecent.ExSmokers || recent.WithHypoxia != wantRecent.WithHypoxia {
		t.Errorf("recent: got %+v want %+v", recent, wantRecent)
	}
	if !strings.Contains(ever.Render(), "ex-smoker") {
		t.Error("render incomplete")
	}
}

// TestHypothesis1AutoDerivation is Experiment H1: for every contributor,
// the g-tree and database mappings are generated automatically from the
// form definition, and the mappings are faithful (write-then-read identity,
// already stressed elsewhere; here we check the derivation artifacts).
func TestHypothesis1AutoDerivation(t *testing.T) {
	cs := buildContribs(t)
	for _, c := range cs {
		// One node per control, plus the root.
		controls := 0
		c.Form.Walk(func(*Control) { controls++ })
		nodes := 0
		c.Tree.Root.Walk(func(*GNode) { nodes++ })
		if nodes != controls+1 {
			t.Errorf("%s: %d nodes for %d controls", c.Name, nodes, controls)
		}
		// Every data-storing control appears in the naive schema mapping.
		for _, name := range c.Tree.FieldNames() {
			if !c.Info.Schema.Has(name) {
				t.Errorf("%s: g-tree field %q missing from naive schema", c.Name, name)
			}
		}
		// Context details survive: questions are non-empty on field nodes.
		c.Tree.Root.Walk(func(n *GNode) {
			if n.StoresData() && n.Question == "" {
				t.Errorf("%s: node %q lost its question wording", c.Name, n.Name)
			}
		})
	}
	// Enablement re-parenting holds in the CORI tree (Figure 2 behaviour).
	cori := cs[0]
	path, err := cori.Tree.Path("PacksPerDay")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(path, "/"), "Smoking/PacksPerDay") {
		t.Errorf("PacksPerDay path = %v", path)
	}
}

// TestHasAChildJoin reproduces the Figure 4 has-a relationship end to end:
// CORI's Finding child form joins to its parent Procedure through the ETL
// JoinStep, so studies can pull child attributes alongside the entity.
func TestHasAChildJoin(t *testing.T) {
	cs := buildContribs(t)
	cori := cs[0]
	ctx := etl.NewContext(map[string]*relstore.DB{"source_CORI": cori.DB})
	w := &etl.Workflow{Name: "findings"}
	procs := etl.TableRef{DB: "tmp", Table: "procs"}
	finds := etl.TableRef{DB: "tmp", Table: "finds"}
	a := w.Add("extract-procs", &etl.Extract{
		SourceDB: "source_CORI", Stack: cori.Stack, Form: cori.Info, To: procs,
	})
	b := w.Add("extract-findings", &etl.Extract{
		SourceDB: "source_CORI", Stack: cori.FindingStack, Form: cori.FindingInfo, To: finds,
	})
	w.Add("join", &etl.JoinStep{
		Left: procs, Right: finds,
		LeftCol: "ProcedureID", RightCol: "ProcedureRef",
		RightPrefix: "f", To: etl.TableRef{DB: "out", Table: "joined"},
	}, a, b)
	if _, err := w.Execute(context.Background(), ctx, etl.RunPolicy{}, 1); err != nil {
		t.Fatal(err)
	}
	joined, err := ctx.DB("out").Table("joined")
	if err != nil {
		t.Fatal(err)
	}
	wantFindings := 0
	for _, tr := range cori.Truths {
		wantFindings += len(tr.Findings)
	}
	if joined.Len() != wantFindings {
		t.Fatalf("joined rows = %d, want %d", joined.Len(), wantFindings)
	}
	// Every joined row's Size matches its ground-truth finding.
	rows := joined.Rows()
	fid := rows.Schema.Index("FindingID")
	size := rows.Schema.Index("Size")
	truthSize := map[int64]int64{}
	for _, tr := range cori.Truths {
		for _, f := range tr.Findings {
			truthSize[f.ID] = f.SizeMM
		}
	}
	for _, r := range rows.Data {
		if r[size].AsInt() != truthSize[r[fid].AsInt()] {
			t.Fatalf("finding %v size %v, want %d", r[fid], r[size], truthSize[r[fid].AsInt()])
		}
	}
}

// TestStudyRefreshFacade: periodic warehouse inclusion through the facade.
func TestStudyRefreshFacade(t *testing.T) {
	cs := buildContribs(t)
	sys := registerAll(t, cs)
	st, err := sys.DefineStudy("warehouse-study").
		Column("Smoking_D3", "Smoking", "D3", KindString).
		For("CORI").
		Entity("All", "", "Procedure <- Procedure").
		Classify("Smoking_D3", "Habits", "", habitsTarget, `
None     <- PacksPerDay = 0
Light    <- 0 < PacksPerDay < 2
Moderate <- 2 <= PacksPerDay < 5
Heavy    <- PacksPerDay >= 5
`).
		Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	warehouse := NewDB("warehouse")
	report, err := st.Refresh(context.Background(), warehouse, RefreshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats := report.Stats; stats.Added != expN {
		t.Errorf("first refresh added %d, want %d", stats.Added, expN)
	}
	report, err = st.Refresh(context.Background(), warehouse, RefreshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats := report.Stats; stats.Unchanged != expN || stats.Added != 0 {
		t.Errorf("second refresh = %+v", stats)
	}
}

// TestKitchenSinkStudy combines every study feature at once: conditions,
// cleaners, multiple columns, parallel execution, serialization, and
// warehouse refresh — all over all three heterogeneous contributors.
func TestKitchenSinkStudy(t *testing.T) {
	cs := buildContribs(t)
	sys := registerAll(t, cs)
	hypoxiaTarget := Target{Entity: "Procedure", Attribute: "Hypoxia", Domain: "D1", Kind: KindBool}
	b := sys.DefineStudy("kitchen-sink").
		Column("Smoking_D3", "Smoking", "D3", KindString).
		Column("Hypoxia_D1", "Hypoxia", "D1", KindBool)
	type vendor struct {
		form, packs, hyp1, hyp2, renal string
		scale                          int
	}
	vendors := map[string]vendor{
		"CORI":      {"Procedure", "PacksPerDay", "TransientHypoxia", "ProlongedHypoxia", "RenalFailure", 1},
		"EndoSoft":  {"Exam", "CigsPerDay", "O2Desat", "O2DesatProlonged", "RenalDisease", 20},
		"MedRecord": {"Record", "PacksDaily", "HypoxiaT", "HypoxiaP", "RenalHx", 1},
	}
	for name, v := range vendors {
		b = b.For(name).
			EntityFor("Procedure", "All "+name, "", "Procedure <- "+v.form).
			Classify("Smoking_D3", "Habits "+name, "", habitsTarget, fmt.Sprintf(`
None     <- %[1]s = 0
Light    <- 0 < %[1]s AND %[1]s < %[2]d
Moderate <- %[2]d <= %[1]s AND %[1]s < %[3]d
Heavy    <- %[1]s >= %[3]d
`, v.packs, 2*v.scale, 5*v.scale)).
			Classify("Hypoxia_D1", "Hypoxia "+name, "", hypoxiaTarget,
				fmt.Sprintf("TRUE <- %s = TRUE OR %s = TRUE\nFALSE <- TRUE", v.hyp1, v.hyp2)).
			Condition(v.renal+" = FALSE").
			Clean("Implausible "+name, "", fmt.Sprintf("DISCARD <- %s >= %d", v.packs, 100*v.scale)).
			Done()
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := st.RunResilient(context.Background(), etl.RunPolicy{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.EqualUnordered(parallel) {
		t.Error("parallel differs from serial")
	}
	direct, err := st.DirectEval()
	if err != nil {
		t.Fatal(err)
	}
	if !serial.EqualUnordered(direct) {
		t.Error("direct evaluation differs")
	}
	// Count matches ground truth: non-renal patients across all vendors.
	want := 0
	for _, c := range cs {
		for _, tr := range c.Truths {
			if !tr.RenalFailure {
				want++
			}
		}
	}
	if serial.Len() != want {
		t.Errorf("rows = %d, want %d", serial.Len(), want)
	}
	// Serialization round trip preserves all of it.
	data, err := st.Doc().JSON()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseStudyDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	sys2 := registerAll(t, cs)
	st2, err := sys2.LoadStudy(doc)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := st2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reloaded.EqualUnordered(serial) {
		t.Error("reloaded kitchen-sink study differs")
	}
	// Warehouse refresh is idempotent.
	wh := NewDB("wh")
	if _, err := st.Refresh(context.Background(), wh, RefreshOptions{}); err != nil {
		t.Fatal(err)
	}
	report, err := st.Refresh(context.Background(), wh, RefreshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats := report.Stats; stats.Added != 0 || stats.Updated != 0 {
		t.Errorf("second refresh = %+v", stats)
	}
}

// TestAnalyzeClassifierFacade: the study-level classifier analysis reports
// interval structure and sample coverage.
func TestAnalyzeClassifierFacade(t *testing.T) {
	cs := buildContribs(t)
	sys := registerAll(t, cs)
	st, err := sys.DefineStudy("analyzed").
		Column("Smoking_D3", "Smoking", "D3", KindString).
		For("CORI").
		Entity("All", "", "Procedure <- Procedure").
		Classify("Smoking_D3", "Gappy", "deliberately missing the 2-5 band", habitsTarget, `
None  <- PacksPerDay = 0
Light <- 0 < PacksPerDay < 2
Heavy <- PacksPerDay >= 5
`).
		Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	intervals, sample, err := st.AnalyzeClassifier("CORI", "Smoking_D3")
	if err != nil {
		t.Fatal(err)
	}
	if intervals == nil || len(intervals.Gaps) != 1 {
		t.Fatalf("intervals = %+v", intervals)
	}
	if sample == nil || sample.Total != expN {
		t.Fatalf("sample = %+v", sample)
	}
	// Most records are Never/Quit smokers with NULL packs: unclassified.
	if sample.Unclassified == 0 {
		t.Error("expected unclassified records in the sample")
	}
	if _, _, err := st.AnalyzeClassifier("CORI", "Nope"); err == nil {
		t.Error("unknown column must fail")
	}
	if _, _, err := st.AnalyzeClassifier("Ghost", "Smoking_D3"); err == nil {
		t.Error("unknown contributor must fail")
	}
}

// TestSystemValidation covers facade-level error paths.
func TestSystemValidation(t *testing.T) {
	cs := buildContribs(t)
	sys := registerAll(t, cs)
	if _, err := sys.RegisterContributor("CORI", cs[0].Form, cs[0].Stack, cs[0].DB); err == nil {
		t.Error("duplicate contributor must fail")
	}
	if _, err := sys.Contributor("Ghost"); err == nil {
		t.Error("unknown contributor must fail")
	}
	if _, err := sys.Study("ghost"); err == nil {
		t.Error("unknown study must fail")
	}
	// Builder error paths: unknown contributor, bad classifier text.
	if _, err := sys.DefineStudy("s1").
		Column("X", "A", "D", KindString).
		For("Ghost").Done().Build(); err == nil {
		t.Error("unknown contributor in builder must fail")
	}
	if _, err := sys.DefineStudy("s2").
		Column("X", "A", "D", KindString).
		For("CORI").
		Entity("e", "", "nonsense <-").
		Done().Build(); err == nil {
		t.Error("unparseable classifier must fail")
	}
	// Duplicate study name.
	ok := func() *StudyBuilder {
		return sys.DefineStudy("dup").
			Column("Smoking_D3", "Smoking", "D3", KindString).
			For("CORI").
			Entity("All", "", "Procedure <- Procedure").
			Classify("Smoking_D3", "h", "", habitsTarget, "None <- PacksPerDay = 0").
			Done()
	}
	if _, err := ok().Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := ok().Build(); err == nil {
		t.Error("duplicate study must fail")
	}
	if got := sys.StudyNames(); len(got) != 1 || got[0] != "dup" {
		t.Errorf("studies = %v", got)
	}
}

// TestContributorFacade covers the Contributor helper surface.
func TestContributorFacade(t *testing.T) {
	cs := buildContribs(t)
	sys := registerAll(t, cs)
	c, err := sys.Contributor("CORI")
	if err != nil {
		t.Fatal(err)
	}
	view, err := c.View()
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != expN {
		t.Errorf("view rows = %d", view.Len())
	}
	rows, err := c.Query(&Query{Tree: c.Tree, Select: []string{"ProcedureID"}, Where: "Smoking = 'Current'"})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Error("query returned nothing")
	}
	// The sink writes through the stack: add one record and see it in the
	// view.
	e, err := NewEntryFor(c, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Set("Age", Int(50)); err != nil {
		t.Fatal(err)
	}
	if err := e.Set("Gender", Str("F")); err != nil {
		t.Fatal(err)
	}
	if err := e.Set("Indication", Str("Screening")); err != nil {
		t.Fatal(err)
	}
	if err := e.Set("ProcType", Str("Colonoscopy")); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(c.Sink()); err != nil {
		t.Fatal(err)
	}
	view2, err := c.View()
	if err != nil {
		t.Fatal(err)
	}
	if view2.Len() != expN+1 {
		t.Errorf("view rows after submit = %d", view2.Len())
	}
}

// TestVersioningThroughFacade wires gtree.Compare + versioning into the
// facade-level story (S12).
func TestVersioningThroughFacade(t *testing.T) {
	cs := buildContribs(t)
	oldTree := cs[0].Tree
	// Tool v2: PacksPerDay renamed.
	f2 := workload.CORIProcedureForm()
	f2.Walk(func(ctl *Control) {
		if ctl.Name == "PacksPerDay" {
			ctl.Name = "PacksDaily"
		}
	})
	// Fix the dangling enablement reference of QuitYearsAgo? It referenced
	// Smoking, untouched. PacksPerDay had the enablement itself.
	if err := f2.Validate(); err != nil {
		t.Fatal(err)
	}
	newTree, err := gtree.Derive("CORI", 2, f2)
	if err != nil {
		t.Fatal(err)
	}
	diff := gtree.Compare(oldTree, newTree)
	if len(diff.Removed) != 1 || diff.Removed[0] != "PacksPerDay" {
		t.Fatalf("diff = %+v", diff)
	}
	cl, err := classifier.Parse("Habits", "", habitsTarget, "None <- PacksPerDay = 0\nHeavy <- PacksPerDay > 0")
	if err != nil {
		t.Fatal(err)
	}
	decisions, err := versioning.Propagate([]*classifier.Classifier{cl}, oldTree, newTree)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 || decisions[0].Status != versioning.Broken {
		t.Fatalf("decision = %+v", decisions)
	}
	found := false
	for _, s := range decisions[0].Suggestions {
		for _, cand := range s.Candidates {
			if cand == "PacksDaily" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("expected PacksDaily suggestion: %+v", decisions[0].Suggestions)
	}
}
