package etl_test

import (
	"context"
	"testing"

	"guava/internal/etl"
	"guava/internal/etl/faulty"
	"guava/internal/patterns"
	"guava/internal/relstore"
)

// studyRows builds a study-shaped relation from (entityKey, contributor,
// finding) triples.
func studyRows(t *testing.T, triples ...[3]string) *relstore.Rows {
	t.Helper()
	schema := relstore.MustSchema(
		relstore.Column{Name: etl.EntityKeyColumn, Type: relstore.KindString, NotNull: true},
		relstore.Column{Name: etl.ContributorColumn, Type: relstore.KindString, NotNull: true},
		relstore.Column{Name: "Finding", Type: relstore.KindString},
	)
	rows := &relstore.Rows{Schema: schema}
	for _, tr := range triples {
		rows.Data = append(rows.Data, relstore.Row{relstore.Str(tr[0]), relstore.Str(tr[1]), relstore.Str(tr[2])})
	}
	return rows
}

// TestMergeRemovesStaleGroups is the regression test for refresh divergence
// through deprecation: a warehouse group absent from the fresh run (the
// entity was deprecated, or fell out of the selection) must be deleted, or
// the merged warehouse drifts away from what a from-scratch build produces.
func TestMergeRemovesStaleGroups(t *testing.T) {
	first := studyRows(t, [3]string{"1", "clinicA", "polyp"}, [3]string{"2", "clinicA", "ulcer"})
	table := relstore.NewTable("Study_x", first.Schema)
	if _, err := etl.MergeForTest(table, first); err != nil {
		t.Fatal(err)
	}

	// Entity 2 vanished from the run.
	second := studyRows(t, [3]string{"1", "clinicA", "polyp"})
	stats, err := etl.MergeForTest(table, second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 || stats.Unchanged != 1 || stats.Added != 0 || stats.Updated != 0 {
		t.Fatalf("merge after deprecation = %+v, want 1 removed, 1 unchanged", stats)
	}
	if !stats.Changed() {
		t.Fatal("a removal-only merge must report Changed() — caches are stale")
	}
	if table.Len() != 1 {
		t.Fatalf("warehouse rows = %d, want 1", table.Len())
	}

	// Convergent: re-merging the same input is a no-op.
	stats, err = etl.MergeForTest(table, second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Changed() {
		t.Fatalf("re-merge of identical input = %+v, want no changes", stats)
	}
}

// TestMergeKeepsDegradedContributorHistory: when a contributor's chain
// failed, its rows are missing from the fresh output because it didn't run —
// not because its data is gone. Merge must preserve its warehouse history
// when told the contributor degraded, and only then.
func TestMergeKeepsDegradedContributorHistory(t *testing.T) {
	first := studyRows(t, [3]string{"1", "clinicA", "polyp"}, [3]string{"2", "clinicB", "ulcer"})
	table := relstore.NewTable("Study_x", first.Schema)
	if _, err := etl.MergeForTest(table, first); err != nil {
		t.Fatal(err)
	}

	// clinicB degraded: its rows are absent from fresh but must survive.
	fresh := studyRows(t, [3]string{"1", "clinicA", "polyp"})
	stats, err := etl.MergeForTest(table, fresh, "clinicB")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 0 || stats.Changed() {
		t.Fatalf("degraded merge = %+v, want nothing removed", stats)
	}
	if table.Len() != 2 {
		t.Fatalf("warehouse rows = %d, want clinicB history preserved (2)", table.Len())
	}

	// Without the protection the same input deletes the stale group.
	stats, err = etl.MergeForTest(table, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 || table.Len() != 1 {
		t.Fatalf("unprotected merge = %+v len=%d, want clinicB group removed", stats, table.Len())
	}
}

// TestRefreshPreservesDegradedContributorHistory is the end-to-end guard for
// the stable-history contract: a full refresh whose run degrades past a dead
// contributor must not interpret that contributor's missing output as
// deprecation and wipe its warehouse rows.
func TestRefreshPreservesDegradedContributorHistory(t *testing.T) {
	spec := etl.StudyFixtureForTest(t)
	compiled, err := etl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	warehouse := relstore.NewDB("warehouse")
	if _, err := compiled.Refresh(context.Background(), warehouse, etl.RefreshOptions{}); err != nil {
		t.Fatal(err)
	}
	table, err := warehouse.Table(compiled.Output.Table)
	if err != nil {
		t.Fatal(err)
	}
	countB := func() int {
		rows, err := table.Select(relstore.Eq(etl.ContributorColumn, relstore.Str("clinicB")))
		if err != nil {
			t.Fatal(err)
		}
		return rows.Len()
	}
	before := countB()
	if before == 0 {
		t.Fatal("fixture must warehouse clinicB rows")
	}

	if ch := faulty.Wrap(compiled.Workflow, "extract/clinicB", func(wrapped etl.Component) *faulty.Chaos {
		return &faulty.Chaos{Wrapped: wrapped, FailForever: true}
	}); ch == nil {
		t.Fatal("extract/clinicB not found")
	}
	policy := etl.RunPolicy{MaxAttempts: 1, ContinueOnError: true}
	stats, err := etl.StatsOf(compiled.Refresh(context.Background(), warehouse, etl.RefreshOptions{Policy: policy}))
	if err != nil {
		t.Fatalf("degraded refresh failed outright: %v", err)
	}
	if stats.Removed != 0 {
		t.Fatalf("degraded refresh removed %d rows — dead contributor history wiped", stats.Removed)
	}
	if got := countB(); got != before {
		t.Fatalf("clinicB warehouse rows %d -> %d across a degraded refresh", before, got)
	}
}

// TestDeltaRefreshRemovesDeprecatedEntities drives a deprecation through the
// journal-backed delta path and checks the warehouse converges to exactly
// what a from-scratch full build produces — the equivalence the incremental
// path promises.
func TestDeltaRefreshRemovesDeprecatedEntities(t *testing.T) {
	ctx := context.Background()
	spec := etl.StudyFixtureForTest(t)
	for _, c := range spec.Contributors {
		c.Stack.Journal = patterns.NewJournal()
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	warehouse := relstore.NewDB("warehouse")
	cursors := etl.NewDeltaCursors()
	if _, err := compiled.Refresh(context.Background(), warehouse, etl.RefreshOptions{Cursors: cursors}); err != nil {
		t.Fatal(err)
	}

	// clinicA's stack carries an Audit layer: deprecate a warehoused record.
	ca := spec.Contributors[0]
	if _, err := ca.Stack.Deprecate(ca.DB, ca.Form, relstore.Int(1)); err != nil {
		t.Fatal(err)
	}
	report, err := compiled.Refresh(ctx, warehouse, etl.RefreshOptions{Mode: etl.DeltaRefresh, Cursors: cursors})
	if err != nil {
		t.Fatal(err)
	}
	if report.Stats.Removed != 1 || !report.Stats.Changed() {
		t.Fatalf("delta after deprecation = %+v, want 1 removed", report.Stats)
	}
	table, err := warehouse.Table(compiled.Output.Table)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := table.Select(relstore.And(
		relstore.Eq(etl.ContributorColumn, relstore.Str("clinicA")),
		relstore.Eq(etl.EntityKeyColumn, relstore.Int(1)),
	))
	if err != nil {
		t.Fatal(err)
	}
	if gone.Len() != 0 {
		t.Fatalf("deprecated entity still warehoused: %v", gone.Data)
	}

	// Equivalence anchor: the patched warehouse matches a from-scratch build.
	scratch := relstore.NewDB("scratch")
	if _, err := compiled.Refresh(context.Background(), scratch, etl.RefreshOptions{}); err != nil {
		t.Fatal(err)
	}
	want, err := scratch.Table(compiled.Output.Table)
	if err != nil {
		t.Fatal(err)
	}
	got, err := relstore.SortBy(table.Rows(), table.Schema().Names()...)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := relstore.SortBy(want.Rows(), want.Schema().Names()...)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != wantRows.Len() {
		t.Fatalf("delta warehouse = %d rows, full rebuild = %d", got.Len(), wantRows.Len())
	}
	for i := range got.Data {
		if got.Data[i].Key() != wantRows.Data[i].Key() {
			t.Fatalf("row %d diverges: delta %v vs full %v", i, got.Data[i], wantRows.Data[i])
		}
	}
}
