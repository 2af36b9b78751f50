package guava

import (
	"context"
	"testing"

	"guava/internal/etl"
	"guava/internal/obs"
)

// TestStudyRefreshContextFacade: the periodic warehouse-inclusion path is
// reachable through the public facade — a Study refreshes into a warehouse
// DB under a RunPolicy and a cancellable context, the RefreshStats alias
// round-trips, and the refresh.* counters land in the attached Observer.
func TestStudyRefreshContextFacade(t *testing.T) {
	sys := registerAll(t, buildContribs(t))
	st, err := sys.DefineStudy("facade-refresh").
		Column("Smoking_D3", "Smoking", "D3", KindString).
		For("CORI").
		Entity("All", "", "Procedure <- Procedure").
		Classify("Smoking_D3", "h", "", habitsTarget, "None <- PacksPerDay = 0").
		Done().Build()
	if err != nil {
		t.Fatal(err)
	}

	warehouse := NewDB("warehouse")
	o := obs.NewObserver()
	ctx := obs.WithObserver(context.Background(), o)

	report, err := st.Refresh(ctx, warehouse, RefreshOptions{Policy: etl.RunPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var stats RefreshStats = report.Stats
	if !stats.Changed() || stats.Added == 0 {
		t.Fatalf("first refresh = %+v, want added rows", stats)
	}
	if !warehouse.Has("Study_facade-refresh") {
		t.Fatal("warehouse table missing after refresh")
	}
	if got := o.Metrics.Counter("refresh.added").Value(); got != int64(stats.Added) {
		t.Errorf("refresh.added = %d, want %d", got, stats.Added)
	}
	if o.Tracer.Find("refresh facade-refresh") == nil {
		t.Error("refresh span missing from the attached tracer")
	}

	// Idempotent second pass under the empty policy.
	report, err = st.Refresh(context.Background(), warehouse, RefreshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Stats.Changed() {
		t.Errorf("idempotent refresh = %+v", report.Stats)
	}

	// Cancellation propagates.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Refresh(canceled, warehouse, RefreshOptions{}); err == nil {
		t.Error("refresh under a canceled context must fail")
	}
}
