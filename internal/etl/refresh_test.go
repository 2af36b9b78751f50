package etl

import (
	"context"
	"reflect"
	"testing"

	"guava/internal/obs"
	"guava/internal/patterns"
	"guava/internal/relstore"
)

// TestRefreshLifecycle: first refresh inserts everything; an identical
// second refresh changes nothing; new records and in-place updates merge
// correctly.
func TestRefreshLifecycle(t *testing.T) {
	spec := studyFixture(t)
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	warehouse := relstore.NewDB("warehouse")

	stats, err := StatsOf(compiled.Refresh(context.Background(), warehouse, RefreshOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 4 || stats.Updated != 0 || stats.Unchanged != 0 {
		t.Fatalf("first refresh = %+v", stats)
	}

	stats, err = StatsOf(compiled.Refresh(context.Background(), warehouse, RefreshOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 0 || stats.Updated != 0 || stats.Unchanged != 4 {
		t.Fatalf("idempotent refresh = %+v", stats)
	}

	// A clinic submits a new report and corrects an old one.
	clinicA := spec.Contributors[0]
	if err := clinicA.Stack.WriteValues(clinicA.DB, clinicA.Form, map[string]relstore.Value{
		"ProcedureID":      relstore.Int(10),
		"PacksPerDay":      relstore.Float(1),
		"Hypoxia":          relstore.Bool(false),
		"SurgeryPerformed": relstore.Bool(true),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := clinicA.Stack.Update(clinicA.DB, clinicA.Form, relstore.Int(1), "PacksPerDay", relstore.Float(3)); err != nil {
		t.Fatal(err)
	}
	stats, err = StatsOf(compiled.Refresh(context.Background(), warehouse, RefreshOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 1 || stats.Updated != 1 || stats.Unchanged != 3 {
		t.Fatalf("incremental refresh = %+v", stats)
	}
	if stats.String() == "" {
		t.Error("stats must render")
	}

	// The warehouse table reflects the update.
	table, err := warehouse.Table("Study_exsmoker")
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 5 {
		t.Fatalf("warehouse rows = %d, want 5", table.Len())
	}
	rows, err := table.Select(relstore.And(
		relstore.Eq(ContributorColumn, relstore.Str("clinicA")),
		relstore.Eq(EntityKeyColumn, relstore.Int(1)),
	))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || !rows.Data[0][2].Equal(relstore.Str("Moderate")) {
		t.Errorf("updated row = %v", rows.Data)
	}
}

// TestRefreshContextCancellation: a canceled context aborts the refresh
// before it can touch the warehouse.
func TestRefreshContextCancellation(t *testing.T) {
	spec := studyFixture(t)
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	warehouse := relstore.NewDB("warehouse")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := compiled.Refresh(ctx, warehouse, RefreshOptions{}); err == nil {
		t.Fatal("refresh under a canceled context must fail")
	}
	if warehouse.Has("Study_exsmoker") {
		t.Error("canceled refresh must not create the warehouse table")
	}
}

// TestRefreshContextMetrics: the refresh publishes refresh.* counters into the
// registry carried by the context.
func TestRefreshContextMetrics(t *testing.T) {
	spec := studyFixture(t)
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	warehouse := relstore.NewDB("warehouse")
	o := obs.NewObserver()
	ctx := obs.WithObserver(context.Background(), o)
	stats, err := StatsOf(compiled.Refresh(ctx, warehouse, RefreshOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Changed() {
		t.Fatalf("first refresh must report changes, got %+v", stats)
	}
	if got := o.Metrics.Counter("refresh.added").Value(); got != int64(stats.Added) {
		t.Errorf("refresh.added = %d, want %d", got, stats.Added)
	}
	if got := o.Metrics.Counter("refresh.runs").Value(); got != 1 {
		t.Errorf("refresh.runs = %d, want 1", got)
	}
	stats, err = StatsOf(compiled.Refresh(ctx, warehouse, RefreshOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Changed() {
		t.Fatalf("idempotent refresh must not report changes, got %+v", stats)
	}
	if got := o.Metrics.Counter("refresh.unchanged").Value(); got != int64(stats.Unchanged) {
		t.Errorf("refresh.unchanged = %d, want %d", got, stats.Unchanged)
	}
}

// dupKeyRows builds a study-shaped relation where one (Contributor,
// EntityKey) identity legitimately owns several rows — the has-a child
// shape — in the given order.
func dupKeyRows(t *testing.T, vals ...string) *relstore.Rows {
	t.Helper()
	schema := relstore.MustSchema(
		relstore.Column{Name: EntityKeyColumn, Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: ContributorColumn, Type: relstore.KindString, NotNull: true},
		relstore.Column{Name: "Finding", Type: relstore.KindString},
	)
	rows := &relstore.Rows{Schema: schema}
	for _, v := range vals {
		rows.Data = append(rows.Data, relstore.Row{relstore.Int(1), relstore.Str("clinicA"), relstore.Str(v)})
	}
	return rows
}

// TestMergeDeterministicUnderDuplicateKeys is the regression test for the
// refresh-divergence risk: when an entity key maps to several output rows,
// the old row-by-row merge (keyed map built once, Update matching every row
// of the key) oscillated between states and reported spurious updates
// forever. The group-wise merge must converge: two refreshes of identical
// input report Updated == 0 on the second pass, regardless of row order.
func TestMergeDeterministicUnderDuplicateKeys(t *testing.T) {
	fresh := dupKeyRows(t, "polyp", "ulcer")
	table := relstore.NewTable("Study_x", fresh.Schema)

	stats, err := MergeForTest(table, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 2 || stats.Updated != 0 {
		t.Fatalf("first merge = %+v, want 2 added", stats)
	}

	// Identical content, opposite order: still a no-op.
	again := dupKeyRows(t, "ulcer", "polyp")
	for i := 0; i < 3; i++ {
		stats, err = MergeForTest(table, again)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Updated != 0 || stats.Added != 0 || stats.Unchanged != 2 {
			t.Fatalf("re-merge %d of identical input = %+v, want all unchanged", i, stats)
		}
	}
	if table.Len() != 2 {
		t.Fatalf("table rows = %d, want 2", table.Len())
	}

	// A genuine change rewrites the whole group exactly once, then settles.
	changed := dupKeyRows(t, "polyp", "biopsy")
	stats, err = MergeForTest(table, changed)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Updated != 2 || stats.Added != 0 {
		t.Fatalf("changed merge = %+v, want 2 updated", stats)
	}
	stats, err = MergeForTest(table, changed)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Updated != 0 || stats.Unchanged != 2 {
		t.Fatalf("post-change re-merge = %+v, want all unchanged", stats)
	}
}

// TestEmptyDeltaRefreshNoWrites is the regression test for the empty-delta
// path: a delta refresh with nothing past the cursors must report zero
// Added/Updated (Changed() false — the signal serving layers use to keep
// their result-cache generation, and with it every cached extract) and must
// leave the warehouse bit-identical.
func TestEmptyDeltaRefreshNoWrites(t *testing.T) {
	ctx := context.Background()
	spec := studyFixture(t)
	for _, c := range spec.Contributors {
		c.Stack.Journal = patterns.NewJournal()
	}
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	warehouse := relstore.NewDB("warehouse")
	cursors := NewDeltaCursors()
	if _, err := compiled.Refresh(context.Background(), warehouse, RefreshOptions{Cursors: cursors}); err != nil {
		t.Fatal(err)
	}

	// Sanity: a real change flows through the delta path first.
	ca := spec.Contributors[0]
	if _, err := ca.Stack.Update(ca.DB, ca.Form, relstore.Int(2), "PacksPerDay", relstore.Float(7)); err != nil {
		t.Fatal(err)
	}
	report, err := compiled.Refresh(ctx, warehouse, RefreshOptions{Mode: DeltaRefresh, Cursors: cursors})
	if err != nil {
		t.Fatal(err)
	}
	if report.Keys != 1 || report.Stats.Updated != 1 || !report.Stats.Changed() {
		t.Fatalf("priming delta = %+v (keys %d), want 1 key, 1 updated", report.Stats, report.Keys)
	}

	table, err := warehouse.Table(compiled.Output.Table)
	if err != nil {
		t.Fatal(err)
	}
	before, err := relstore.SortBy(table.Rows(), table.Schema().Names()...)
	if err != nil {
		t.Fatal(err)
	}
	beforeCursors := cursors.Snapshot()

	// Nothing has changed since: the delta must be empty and writeless.
	report, err = compiled.Refresh(ctx, warehouse, RefreshOptions{Mode: DeltaRefresh, Cursors: cursors})
	if err != nil {
		t.Fatal(err)
	}
	if report.Keys != 0 || report.Stats.Added != 0 || report.Stats.Updated != 0 || report.Stats.Total != 0 {
		t.Fatalf("empty delta = %+v (keys %d), want all zero", report.Stats, report.Keys)
	}
	if report.Stats.Changed() {
		t.Fatal("empty delta reports Changed() — serving layers would needlessly invalidate caches")
	}
	after, err := relstore.SortBy(table.Rows(), table.Schema().Names()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Data) != len(after.Data) {
		t.Fatalf("warehouse row count changed: %d -> %d", len(before.Data), len(after.Data))
	}
	for i := range before.Data {
		if before.Data[i].Key() != after.Data[i].Key() {
			t.Fatalf("warehouse row %d changed under an empty delta", i)
		}
	}
	if got := cursors.Snapshot(); !reflect.DeepEqual(got, beforeCursors) {
		t.Fatalf("empty delta moved cursors: %v -> %v", beforeCursors, got)
	}
}

// TestDeltaIndexesEntityKeyUnlessClustered: a delta refresh gives the
// warehouse table a Contributor hash index, and an EntityKey one unless
// the table is clustered on EntityKey. A batch warehouse (runstudy's,
// coribench R6's, the facade's) is never ordered, so its delta probes go
// through the hash index; a table in canonical order, as serve publishes
// it, answers them by binary search over its ordered prefix.
func TestDeltaIndexesEntityKeyUnlessClustered(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		spec := studyFixture(t)
		for _, c := range spec.Contributors {
			c.Stack.Journal = patterns.NewJournal()
		}
		compiled, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		warehouse := relstore.NewDB("warehouse")
		cursors := NewDeltaCursors()
		if _, err := compiled.Refresh(context.Background(), warehouse, RefreshOptions{Cursors: cursors}); err != nil {
			t.Fatal(err)
		}
		table, err := warehouse.Table(compiled.Output.Table)
		if err != nil {
			t.Fatal(err)
		}
		if ordered {
			if err := table.Order(table.Schema().Names()...); err != nil {
				t.Fatal(err)
			}
		}
		ca := spec.Contributors[0]
		if _, err := ca.Stack.Update(ca.DB, ca.Form, relstore.Int(2), "PacksPerDay", relstore.Float(7)); err != nil {
			t.Fatal(err)
		}
		report, err := compiled.Refresh(context.Background(), warehouse, RefreshOptions{Mode: DeltaRefresh, Cursors: cursors})
		if err != nil {
			t.Fatal(err)
		}
		if report.Stats.Updated != 1 {
			t.Fatalf("ordered %v: delta = %+v, want 1 updated", ordered, report.Stats)
		}
		if got := table.HasIndex(EntityKeyColumn); got == ordered {
			t.Errorf("ordered %v: the delta left an EntityKey index: %v", ordered, got)
		}
		if !table.HasIndex(ContributorColumn) {
			t.Errorf("ordered %v: the delta left no Contributor index", ordered)
		}
	}
}

// TestScopedRunCheckpointsApart: a delta's key-scoped run checkpoints
// under a key digesting its scope, so it never restores the step tables a
// full run checkpointed under the plan's fingerprint.
func TestScopedRunCheckpointsApart(t *testing.T) {
	ctx := context.Background()
	spec := studyFixture(t)
	for _, c := range spec.Contributors {
		c.Stack.Journal = patterns.NewJournal()
	}
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemCheckpointer()
	policy := RunPolicy{Checkpoint: store}
	cursors := NewDeltaCursors()
	warehouse := relstore.NewDB("warehouse")
	if _, err := compiled.Refresh(ctx, warehouse, RefreshOptions{Policy: policy, Cursors: cursors}); err != nil {
		t.Fatal(err)
	}
	saved := store.Len(compiled.Fingerprint())
	if saved == 0 {
		t.Fatal("full refresh checkpointed nothing under the plan's fingerprint")
	}

	ca := spec.Contributors[0]
	if _, err := ca.Stack.Update(ca.DB, ca.Form, relstore.Int(2), "PacksPerDay", relstore.Float(7)); err != nil {
		t.Fatal(err)
	}
	report, err := compiled.Refresh(ctx, warehouse, RefreshOptions{Mode: DeltaRefresh, Policy: policy, Cursors: cursors})
	if err != nil {
		t.Fatal(err)
	}
	if restored := report.Run.Restored(); len(restored) != 0 {
		t.Fatalf("delta restored the full run's checkpoints: %v", restored)
	}
	if report.Stats.Updated != 1 {
		t.Fatalf("delta = %+v, want the update applied", report.Stats)
	}
	if got := store.Len(compiled.Fingerprint()); got != saved {
		t.Fatalf("delta wrote into the full run's checkpoints: %d -> %d", saved, got)
	}
}
