package textsrc

import (
	"context"
	"fmt"

	"guava/internal/obs"
	"guava/internal/patterns"
	"guava/internal/relstore"
)

// Layout is the physical design of a text-backed contributor: the source
// of record is the report documents themselves, stored one per row in
//
//	<form>__reports(<key>, Body)
//
// and the naive relation only exists by running the compiled extractor
// over every body on Read. Write renders the canonical document for a row
// — the contributor "dictates" its records — so the standard pattern-stack
// contract (round trip, keyed reads, single-column updates, journaling)
// holds over text exactly as over tables, and everything downstream
// (classifiers, delta refresh, studyd) runs unchanged.
//
// Read hands every report that does not extract cleanly to the stack's
// miss sink, for full and key-scoped reads alike, separating clean rows
// from per-report misses: Stack.ReadDiverting returns them so the ETL
// quarantine can dead-letter them under the run budget instead of failing
// the corpus, while the strict stack reads (Read, ReadKeys, queries) fail
// on the first.
type Layout struct {
	ext *Extractor
}

// NewLayout compiles the spec into a text-backed layout.
func NewLayout(spec *ExtractSpec) (*Layout, error) {
	ext, err := Compile(spec)
	if err != nil {
		return nil, err
	}
	return &Layout{ext: ext}, nil
}

// Extractor exposes the compiled extractor (vet checks introspect it).
func (l *Layout) Extractor() *Extractor { return l.ext }

// Spec returns the source ExtractSpec.
func (l *Layout) Spec() *ExtractSpec { return l.ext.Spec() }

// Name implements patterns.Layout.
func (*Layout) Name() string { return "TextReports" }

// Describe implements patterns.Layout.
func (*Layout) Describe() string {
	return "Records are free-text report documents; a compiled ExtractSpec maps anchored sections, key-value lines, and enumerated findings back to the naive relation on read."
}

// ReportsTable names the physical document table for a form.
func ReportsTable(formName string) string { return formName + "__reports" }

func (l *Layout) reportsSchema(form patterns.FormInfo) *relstore.Schema {
	ki := form.Schema.Index(form.KeyColumn)
	return relstore.MustSchema(
		form.Schema.Columns[ki],
		relstore.Column{Name: "Body", Type: relstore.KindString, NotNull: true},
	)
}

// Install implements patterns.Layout.
func (l *Layout) Install(db *relstore.DB, form patterns.FormInfo) error {
	t, err := db.EnsureTable(ReportsTable(form.Name), l.reportsSchema(form))
	if err != nil {
		return err
	}
	return t.CreateIndex(form.KeyColumn)
}

// Write implements patterns.Layout: render the canonical report document
// for the row and store it.
func (l *Layout) Write(db *relstore.DB, form patterns.FormInfo, row relstore.Row) error {
	t, err := db.Table(ReportsTable(form.Name))
	if err != nil {
		return err
	}
	doc, err := Render(l.ext.spec, form.Schema, row)
	if err != nil {
		return err
	}
	return t.Insert(relstore.Row{row[form.Schema.Index(form.KeyColumn)], relstore.Str(doc)})
}

// extractAll runs the extractor over a set of stored documents. Misses
// divert their whole report; rows come back in storage order.
func (l *Layout) extractAll(docs *relstore.Rows) (*relstore.Rows, []patterns.SourceMiss) {
	out := &relstore.Rows{Schema: l.ext.Schema(), Data: make([]relstore.Row, 0, len(docs.Data))}
	var misses []patterns.SourceMiss
	for _, d := range docs.Data {
		row, ms := l.ext.Extract(d[1].AsString())
		if len(ms) == 0 {
			out.Data = append(out.Data, row)
			continue
		}
		for _, m := range ms {
			id := m.ReportID
			if id.IsNull() {
				id = d[0]
			}
			misses = append(misses, patterns.SourceMiss{
				Key:        id,
				Rule:       m.Rule,
				Err:        m.Err(),
				SourceKind: "report-span",
				Locator:    m.Locator(),
			})
		}
	}
	return out, misses
}

// Read implements patterns.Layout: the stored reports that the key
// conjuncts of where select (all of them, or an index probe) are
// extracted, so the read is exact when where is a key predicate. Clean rows
// flow, every miss goes to the sink with report-span provenance, and
// textsrc.* counters record the corpus health.
func (l *Layout) Read(ctx context.Context, db *relstore.DB, form patterns.FormInfo, where relstore.Pred, miss func(patterns.SourceMiss)) (*relstore.Rows, bool, error) {
	t, err := db.Table(ReportsTable(form.Name))
	if err != nil {
		return nil, false, err
	}
	keyed, exact := patterns.KeyConjuncts(form, where)
	docs, err := t.Select(keyed)
	if err != nil {
		return nil, false, err
	}
	rows, misses := l.extractAll(docs)
	for _, ms := range misses {
		miss(ms)
	}
	m := obs.MetricsFrom(ctx)
	m.Counter("textsrc.reports.in").Add(int64(len(docs.Data)))
	m.Counter("textsrc.reports.diverted").Add(int64(len(docs.Data) - len(rows.Data)))
	m.Counter("textsrc.misses").Add(int64(len(misses)))
	return rows, exact, nil
}

// Update implements patterns.Layout: extract the report, change the one
// answer, and re-dictate the canonical document.
func (l *Layout) Update(db *relstore.DB, form patterns.FormInfo, key relstore.Value, col string, v relstore.Value) (int, error) {
	ci := l.ext.Schema().Index(col)
	if ci < 0 {
		return 0, fmt.Errorf("textsrc: update: no column %q", col)
	}
	t, err := db.Table(ReportsTable(form.Name))
	if err != nil {
		return 0, err
	}
	stored, err := t.Lookup(form.KeyColumn, key)
	if err != nil {
		return 0, err
	}
	if len(stored) == 0 {
		return 0, nil
	}
	if len(stored) > 1 {
		return 0, fmt.Errorf("textsrc: update: %d reports share key %s", len(stored), key.Display())
	}
	row, misses := l.ext.Extract(stored[0][1].AsString())
	if len(misses) > 0 {
		return 0, fmt.Errorf("textsrc: update: report %s does not extract cleanly: %w", key.Display(), misses[0].Err())
	}
	row[ci] = v
	doc, err := l.ext.Render(row)
	if err != nil {
		return 0, err
	}
	return t.Update(relstore.Eq(form.KeyColumn, key), func(r relstore.Row) relstore.Row {
		r[1] = relstore.Str(doc)
		return r
	})
}

// PhysicalTables implements patterns.Layout.
func (*Layout) PhysicalTables(form patterns.FormInfo) []string {
	return []string{ReportsTable(form.Name)}
}

// AppendDocument stores one raw report document — canonical or not — under
// the stack, recording the key in the journal so a delta refresh picks the
// report up. This is how report text enters the system from outside the
// form path: runstudy -text-append, corpus ingestion, corrupted-report
// injection in tests.
func AppendDocument(db *relstore.DB, stack *patterns.Stack, form patterns.FormInfo, key relstore.Value, body string) error {
	if _, ok := stack.Layout.(*Layout); !ok {
		return fmt.Errorf("textsrc: append: stack layout is %s, not TextReports", stack.Layout.Name())
	}
	t, err := db.Table(ReportsTable(form.Name))
	if err != nil {
		return err
	}
	if err := t.Insert(relstore.Row{key, relstore.Str(body)}); err != nil {
		return err
	}
	if stack.Journal != nil {
		return stack.Journal.Record(db, form, key)
	}
	return nil
}
