package textsrc

import (
	"context"
	"sort"
	"strings"
	"testing"

	"guava/internal/patterns"
	"guava/internal/relstore"
)

// testSpec mirrors the workload's note-report family: a vocabulary field,
// a unit-normalized quantity, a plain integer, and enumerated findings.
func testSpec() *ExtractSpec {
	return &ExtractSpec{
		Name:  "NoteReport",
		Title: "Endoscopy progress note",
		Key:   "NoteID",
		Sections: []SectionSpec{
			{Heading: "HISTORY", Fields: []FieldSpec{
				{Name: "SmokeStatus", Matcher: KeyValue, Label: "Smoking status", Kind: relstore.KindString, Required: true,
					Vocab: []VocabEntry{
						{Text: "never smoker", Stored: relstore.Str("Never")},
						{Text: "current smoker", Stored: relstore.Str("Current")},
						{Text: "former smoker", Stored: relstore.Str("Quit")},
					}},
				{Name: "TobaccoPacks", Matcher: KeyValue, Label: "Tobacco use", Kind: relstore.KindFloat,
					Unit: &UnitSpec{Canonical: "packs/day", Factors: map[string]float64{"packs/day": 1, "cigarettes/day": 0.05}}},
				{Name: "AgeYears", Matcher: KeyValue, Label: "Age", Kind: relstore.KindInt},
			}},
			{Heading: "COMPLICATIONS", Fields: []FieldSpec{
				{Name: "HypoxiaTransient", Matcher: Enumeration, Label: "transient hypoxia"},
				{Name: "HypoxiaProlonged", Matcher: Enumeration, Label: "prolonged hypoxia"},
			}},
		},
	}
}

func testRows() []relstore.Row {
	return []relstore.Row{
		{relstore.Int(1), relstore.Str("Current"), relstore.Float(2.5), relstore.Int(61), relstore.Bool(true), relstore.Bool(false)},
		{relstore.Int(2), relstore.Str("Never"), relstore.Null(), relstore.Int(45), relstore.Bool(false), relstore.Bool(false)},
		{relstore.Int(3), relstore.Str("Quit"), relstore.Null(), relstore.Null(), relstore.Bool(false), relstore.Bool(true)},
	}
}

func mustCompile(t *testing.T) *Extractor {
	t.Helper()
	e, err := Compile(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSpecDerivesForm(t *testing.T) {
	e := mustCompile(t)
	want := "NoteID, SmokeStatus, TobaccoPacks, AgeYears, HypoxiaTransient, HypoxiaProlonged"
	if got := e.Schema().NameList(); got != want {
		t.Fatalf("schema = %s, want %s", got, want)
	}
	kinds := []relstore.Kind{relstore.KindInt, relstore.KindString, relstore.KindFloat,
		relstore.KindInt, relstore.KindBool, relstore.KindBool}
	for i, k := range kinds {
		if e.Schema().Columns[i].Type != k {
			t.Errorf("column %d type = %s, want %s", i, e.Schema().Columns[i].Type, k)
		}
	}
	smoke, err := e.Form().Control("SmokeStatus")
	if err != nil {
		t.Fatal(err)
	}
	if len(smoke.Options) != 3 || !smoke.Required {
		t.Errorf("SmokeStatus control: options=%d required=%v", len(smoke.Options), smoke.Required)
	}
}

func TestValidateRejects(t *testing.T) {
	breakages := map[string]func(*ExtractSpec){
		"empty name":       func(s *ExtractSpec) { s.Name = "" },
		"empty key":        func(s *ExtractSpec) { s.Key = "" },
		"no sections":      func(s *ExtractSpec) { s.Sections = nil },
		"empty heading":    func(s *ExtractSpec) { s.Sections[0].Heading = "" },
		"fenced heading":   func(s *ExtractSpec) { s.Sections[0].Heading = "A == B" },
		"empty section":    func(s *ExtractSpec) { s.Sections[0].Fields = nil },
		"empty label":      func(s *ExtractSpec) { s.Sections[0].Fields[0].Label = "" },
		"colon in label":   func(s *ExtractSpec) { s.Sections[0].Fields[0].Label = "Smoking: status" },
		"dup field name":   func(s *ExtractSpec) { s.Sections[1].Fields[0].Name = "SmokeStatus" },
		"required enum":    func(s *ExtractSpec) { s.Sections[1].Fields[0].Required = true },
		"int enum":         func(s *ExtractSpec) { s.Sections[1].Fields[0].Kind = relstore.KindInt },
		"null vocab":       func(s *ExtractSpec) { s.Sections[0].Fields[0].Vocab[0].Stored = relstore.Null() },
		"dup vocab phrase": func(s *ExtractSpec) { s.Sections[0].Fields[0].Vocab[1].Text = "never smoker" },
		"dup vocab stored": func(s *ExtractSpec) { s.Sections[0].Fields[0].Vocab[1].Stored = relstore.Str("Never") },
		"vocab kind":       func(s *ExtractSpec) { s.Sections[0].Fields[0].Vocab[0].Stored = relstore.Int(1) },
		"unit on int":      func(s *ExtractSpec) { s.Sections[0].Fields[1].Kind = relstore.KindInt },
		"no canonical":     func(s *ExtractSpec) { s.Sections[0].Fields[1].Unit.Canonical = "liters" },
		"bad factor":       func(s *ExtractSpec) { s.Sections[0].Fields[1].Unit.Factors["cigarettes/day"] = 0 },
	}
	for name, mutate := range breakages {
		s := testSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken spec", name)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("pristine spec rejected: %v", err)
	}
}

func TestCompileRejectsOverlaps(t *testing.T) {
	dupHeading := testSpec()
	dupHeading.Sections[1].Heading = "HISTORY"
	dupHeading.Sections[1].Fields = []FieldSpec{{Name: "Other", Matcher: KeyValue, Label: "Other"}}
	dupLabel := testSpec()
	dupLabel.Sections[0].Fields[2].Label = "Smoking status"
	dupTerm := testSpec()
	dupTerm.Sections[1].Fields[1].Label = "transient hypoxia"
	for name, s := range map[string]*ExtractSpec{"heading": dupHeading, "label": dupLabel, "term": dupTerm} {
		if len(s.Overlaps()) == 0 {
			t.Errorf("%s: no overlap reported", name)
		}
		if _, err := Compile(s); err == nil {
			t.Errorf("%s: Compile accepted overlapping matchers", name)
		}
	}
}

func TestRenderCanonical(t *testing.T) {
	e := mustCompile(t)
	doc, err := e.Render(testRows()[0])
	if err != nil {
		t.Fatal(err)
	}
	want := "REPORT 1\n" +
		"Endoscopy progress note\n" +
		"\n== HISTORY ==\n" +
		"Smoking status: current smoker\n" +
		"Tobacco use: 2.5 packs/day\n" +
		"Age: 61\n" +
		"\n== COMPLICATIONS ==\n" +
		"- transient hypoxia\n"
	if doc != want {
		t.Fatalf("canonical document:\n%q\nwant:\n%q", doc, want)
	}
}

func TestExtractInvertsRender(t *testing.T) {
	e := mustCompile(t)
	for _, row := range testRows() {
		doc, err := e.Render(row)
		if err != nil {
			t.Fatal(err)
		}
		got, misses := e.Extract(doc)
		if len(misses) != 0 {
			t.Fatalf("row %v: misses %v", row, misses)
		}
		if !got.Equal(row) {
			t.Fatalf("extract(render(row)) = %v, want %v", got, row)
		}
	}
}

func TestExtractSkipsNoiseAndNormalizesUnits(t *testing.T) {
	e := mustCompile(t)
	doc := strings.Join([]string{
		"REPORT 7",
		"Dictated by the attending physician.",
		"== HISTORY ==",
		"Patient in no acute distress.",
		"Smoking status: current smoker",
		"Weight: 82 kg", // unanchored label: noise
		"Tobacco use: 30 cigarettes/day",
		"== FOREIGN SECTION ==",
		"Age: 99", // inside an unknown section: noise
		"== COMPLICATIONS ==",
		"- prolonged hypoxia",
		"- incidental polyp", // unanchored finding: noise
		"Page 1 of 1",
	}, "\n")
	row, misses := e.Extract(doc)
	if len(misses) != 0 {
		t.Fatalf("misses: %v", misses)
	}
	want := relstore.Row{relstore.Int(7), relstore.Str("Current"), relstore.Float(1.5),
		relstore.Null(), relstore.Bool(false), relstore.Bool(true)}
	if !row.Equal(want) {
		t.Fatalf("row = %v, want %v", row, want)
	}
}

func TestExtractMissProvenance(t *testing.T) {
	e := mustCompile(t)

	t.Run("unmatched required field", func(t *testing.T) {
		doc := "REPORT 4\n\n== HISTORY ==\nAge: 50\n\n== COMPLICATIONS ==\n"
		_, misses := e.Extract(doc)
		if len(misses) != 1 {
			t.Fatalf("misses = %v", misses)
		}
		m := misses[0]
		if m.Rule != "NoteReport/HISTORY/SmokeStatus" || m.Reason != "unmatched required field" {
			t.Fatalf("miss = %+v", m)
		}
		if doc[m.Start:m.End] != "== HISTORY ==" {
			t.Fatalf("span %d-%d = %q, want the section header", m.Start, m.End, doc[m.Start:m.End])
		}
		if m.ReportID.AsInt() != 4 {
			t.Fatalf("report id = %v", m.ReportID)
		}
	})

	t.Run("out-of-vocabulary value", func(t *testing.T) {
		doc := "REPORT 5\n\n== HISTORY ==\nSmoking status: pipe smoker\n"
		_, misses := e.Extract(doc)
		if len(misses) != 1 {
			t.Fatalf("misses = %v", misses)
		}
		m := misses[0]
		if m.Rule != "NoteReport/HISTORY/SmokeStatus" || !strings.Contains(m.Reason, "out-of-vocabulary") {
			t.Fatalf("miss = %+v", m)
		}
		if got := doc[m.Start:m.End]; got != "Smoking status: pipe smoker" {
			t.Fatalf("span = %q", got)
		}
		if want := "report 5 bytes 24-51"; m.Locator() != want {
			t.Fatalf("locator = %q, want %q", m.Locator(), want)
		}
	})

	t.Run("ambiguous duplicate section", func(t *testing.T) {
		doc := "REPORT 6\n== HISTORY ==\nSmoking status: never smoker\n== HISTORY ==\nAge: 40\n"
		_, misses := e.Extract(doc)
		if len(misses) != 1 {
			t.Fatalf("misses = %v", misses)
		}
		m := misses[0]
		if m.Rule != "NoteReport/HISTORY" || m.Reason != "ambiguous duplicate section" {
			t.Fatalf("miss = %+v", m)
		}
		if got := doc[m.Start:m.End]; got != "== HISTORY ==" {
			t.Fatalf("span = %q", got)
		}
	})

	t.Run("duplicate field value", func(t *testing.T) {
		doc := "REPORT 8\n== HISTORY ==\nSmoking status: never smoker\nSmoking status: current smoker\n"
		_, misses := e.Extract(doc)
		if len(misses) != 1 || misses[0].Reason != "duplicate value for field" {
			t.Fatalf("misses = %v", misses)
		}
	})

	t.Run("unreadable key line", func(t *testing.T) {
		_, misses := e.Extract("PROGRESS NOTE\n== HISTORY ==\nSmoking status: never smoker\n")
		if len(misses) != 1 {
			t.Fatalf("misses = %v", misses)
		}
		if m := misses[0]; m.Rule != "NoteReport/key" || !m.ReportID.IsNull() {
			t.Fatalf("miss = %+v", m)
		}
	})

	t.Run("unknown unit", func(t *testing.T) {
		doc := "REPORT 9\n== HISTORY ==\nSmoking status: never smoker\nTobacco use: 3 pipes/week\n"
		_, misses := e.Extract(doc)
		if len(misses) != 1 || !strings.Contains(misses[0].Reason, `unknown unit "pipes/week"`) {
			t.Fatalf("misses = %v", misses)
		}
	})
}

func stackForm(t *testing.T, e *Extractor) patterns.FormInfo {
	t.Helper()
	info, err := patterns.FromUIForm(e.Form())
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestLayoutRoundTripThroughStack(t *testing.T) {
	layout, err := NewLayout(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	stack := patterns.NewStack(layout)
	stack.Journal = patterns.NewJournal()
	form := stackForm(t, layout.Extractor())
	db := relstore.NewDB("notes")
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	rows := testRows()
	for _, r := range rows {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := stack.Read(db, form)
	if err != nil {
		t.Fatal(err)
	}
	want := &relstore.Rows{Schema: form.Schema, Data: rows}
	if !got.EqualUnordered(want) {
		t.Fatalf("round trip:\n%s\nwant:\n%s", got.Format(), want.Format())
	}

	// Keyed read probes individual reports.
	got, err = stack.ReadKeys(db, form, []relstore.Value{relstore.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Data[0][1].Equal(relstore.Str("Never")) {
		t.Fatalf("read-keys(2) = %s", got.Format())
	}

	// Update re-dictates the document.
	n, err := stack.Update(db, form, relstore.Int(1), "AgeYears", relstore.Int(62))
	if err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	got, err = stack.ReadKeys(db, form, []relstore.Value{relstore.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Data[0][3].Equal(relstore.Int(62)) {
		t.Fatalf("after update: %s", got.Format())
	}
}

// corruptCorpus journals the test rows' reports plus one corrupt report,
// key 99, under a TextReports stack.
func corruptCorpus(t *testing.T) (*patterns.Stack, patterns.FormInfo, *relstore.DB) {
	t.Helper()
	layout, err := NewLayout(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	stack := patterns.NewStack(layout)
	stack.Journal = patterns.NewJournal()
	form := stackForm(t, layout.Extractor())
	db := relstore.NewDB("notes")
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	for _, r := range testRows() {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	corrupt := "REPORT 99\n== HISTORY ==\nSmoking status: pipe smoker\nAge: 70\n"
	if err := AppendDocument(db, stack, form, relstore.Int(99), corrupt); err != nil {
		t.Fatal(err)
	}
	return stack, form, db
}

func TestReadDivertingSeparatesCorruptReports(t *testing.T) {
	stack, form, db := corruptCorpus(t)

	// The strict read refuses the corpus.
	if _, err := stack.Read(db, form); err == nil {
		t.Fatal("Read must fail on a corrupt report")
	}

	// The diverting read separates the misses.
	rows, misses, err := stack.ReadDiverting(context.Background(), db, form, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("clean rows = %d, want 3", rows.Len())
	}
	if len(misses) != 1 {
		t.Fatalf("misses = %v", misses)
	}
	m := misses[0]
	if m.SourceKind != "report-span" || !m.Key.Equal(relstore.Int(99)) {
		t.Fatalf("miss = %+v", m)
	}
	if !strings.HasPrefix(m.Locator, "report 99 bytes ") {
		t.Fatalf("locator = %q", m.Locator)
	}

	// A query that pins a key reads only that report: a clean key pushes
	// down past the corrupt report, which fails as ReadKeys does.
	res, err := stack.QueryWithInfo(db, form, relstore.Eq("NoteID", relstore.Int(2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 1 || !res.PushedDown {
		t.Fatalf("query key 2: %d rows, pushed down %v; want 1, true", res.Rows.Len(), res.PushedDown)
	}
	_, keyErr := stack.ReadKeys(db, form, []relstore.Value{relstore.Int(99)})
	_, err = stack.QueryWithInfo(db, form, relstore.Eq("NoteID", relstore.Int(99)), nil)
	if keyErr == nil || err == nil || err.Error() != keyErr.Error() {
		t.Fatalf("query key 99: err = %v, want ReadKeys' %v", err, keyErr)
	}

	// The appended report was journaled for delta refresh.
	hw, err := stack.Journal.HighWaterMark(db, form)
	if err != nil {
		t.Fatal(err)
	}
	keys, _, err := stack.Journal.ChangedSince(db, form, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hw != 4 || len(keys) != 4 {
		t.Fatalf("journal: hw=%d keys=%v", hw, keys)
	}
}

// TestKeyScopedReadEqualsRestrictedFullRead: over a corpus holding one
// corrupt report, a key-scoped read's rows and misses are the full read's
// restricted to the keys.
func TestKeyScopedReadEqualsRestrictedFullRead(t *testing.T) {
	stack, form, db := corruptCorpus(t)
	ctx := context.Background()
	full, fullMisses, err := stack.ReadDiverting(ctx, db, form, nil)
	if err != nil {
		t.Fatal(err)
	}
	missText := func(ms []patterns.SourceMiss, in map[string]bool) []string {
		var out []string
		for _, m := range ms {
			if in == nil || in[m.Key.Key()] {
				out = append(out, m.Key.Display()+" "+m.Rule+" "+m.Locator)
			}
		}
		sort.Strings(out)
		return out
	}
	for _, keys := range [][]relstore.Value{
		{},
		{relstore.Null()},
		{relstore.Int(99)},
		{relstore.Int(1), relstore.Int(99), relstore.Int(99)},
		{relstore.Int(2), relstore.Int(7)},
		{relstore.Int(3), relstore.Null(), relstore.Int(1)},
		{relstore.Int(1), relstore.Int(2), relstore.Int(3), relstore.Int(99)},
	} {
		in := map[string]bool{}
		for _, k := range keys {
			if !k.IsNull() {
				in[k.Key()] = true
			}
		}
		rows, misses, err := stack.ReadDiverting(ctx, db, form, keys)
		if err != nil {
			t.Fatalf("keys %v: %v", keys, err)
		}
		want := &relstore.Rows{Schema: full.Schema}
		for _, r := range full.Data {
			if in[r[0].Key()] {
				want.Data = append(want.Data, r)
			}
		}
		if !rows.EqualUnordered(want) {
			t.Errorf("keys %v: rows\n%s\nwant:\n%s", keys, rows.Format(), want.Format())
		}
		if got, want := missText(misses, nil), missText(fullMisses, in); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("keys %v: misses %q, want %q", keys, got, want)
		}
	}
}

func TestDecodeJSON(t *testing.T) {
	artifact := `{
	  "name": "NoteReport", "key": "NoteID", "tree": "notes",
	  "sections": [{
	    "heading": "HISTORY",
	    "fields": [
	      {"name": "SmokeStatus", "label": "Smoking status", "type": "TEXT", "required": true,
	       "vocab": [{"text": "never smoker", "stored": "Never"}]},
	      {"name": "TobaccoPacks", "label": "Tobacco use", "type": "REAL",
	       "unit": {"canonical": "packs/day", "factors": {"packs/day": 1, "cigarettes/day": 0.05}}},
	      {"name": "HypoxiaTransient", "label": "transient hypoxia", "match": "enum"}
	    ]
	  }]
	}`
	spec, tree, err := DecodeJSON([]byte(artifact))
	if err != nil {
		t.Fatal(err)
	}
	if tree != "notes" {
		t.Errorf("tree = %q", tree)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(spec); err != nil {
		t.Fatal(err)
	}
	f := spec.Sections[0].Fields
	if f[0].Vocab[0].Stored.Kind() != relstore.KindString || f[1].Unit.Canonical != "packs/day" || f[2].Matcher != Enumeration {
		t.Fatalf("decoded fields: %+v", f)
	}
	if _, _, err := DecodeJSON([]byte("{not json")); err == nil {
		t.Fatal("malformed JSON must fail")
	}
	if _, _, err := DecodeJSON([]byte(`{"sections":[{"fields":[{"match":"fuzzy"}]}]}`)); err == nil {
		t.Fatal("unknown matcher must fail")
	}
}
