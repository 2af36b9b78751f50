package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"testing"

	"guava/internal/baseline"
	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// servedBytes renders a study's current generation table.
func servedBytes(t *testing.T, st *servedStudy) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := relstore.WriteTyped(&buf, st.cur.Load().table.Rows()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaTickAbsorbsCorruptReport: under a quarantine budget, a corrupt
// free-text report appended to Notes is dead-lettered by the background
// delta tick itself — the tick does not fail over to a full refresh — and
// the served rows equal a full rebuild over the same contributors.
func TestDeltaTickAbsorbsCorruptReport(t *testing.T) {
	const seed, n = 5, 30
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	notes, err := workload.BuildNotes(seed+3, n)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := baseline.ReferenceSpec(append(contribs, notes))
	if err != nil {
		t.Fatal(err)
	}
	policy := etl.RunPolicy{MaxQuarantinedRows: 5}
	o := obs.NewObserver()
	srv := NewServer(Config{Observer: o, Policy: policy})
	if err := srv.AddStudy(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	st, _ := srv.study(spec.Name)

	id := notes.MaxID() + 1000
	if err := notes.InjectReport(id, workload.CorruptNoteBody(id)); err != nil {
		t.Fatal(err)
	}
	srv.refreshAuto(context.Background(), st, "background")
	m := o.Metrics
	if got := m.Counter("serve.refresh.delta").Value(); got != 1 {
		t.Errorf("serve.refresh.delta = %d, want 1", got)
	}
	if got := m.Counter("serve.refresh.delta.fallback").Value(); got != 0 {
		t.Errorf("serve.refresh.delta.fallback = %d, want 0 (the delta tick failed on a miss)", got)
	}
	if got := m.Counter("quarantine.rows").Value(); got != 1 {
		t.Errorf("quarantine.rows = %d, want the corrupt report dead-lettered once", got)
	}

	rebuilt := NewServer(Config{Observer: obs.NewObserver(), Policy: policy})
	if err := rebuilt.AddStudy(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	want, _ := rebuilt.study(spec.Name)
	if !bytes.Equal(servedBytes(t, st), servedBytes(t, want)) {
		t.Fatal("rows served after the delta tick differ from a full rebuild")
	}
}

// TestFullRefreshCountsRemoved: a full refresh that drops a deprecated
// entity's rows accounts them in refresh.removed, beside the other row
// fates.
func TestFullRefreshCountsRemoved(t *testing.T) {
	srv, spec, ts := newTestServer(t, Config{})
	clinicA := spec.Contributors[0]
	if _, err := clinicA.Stack.Deprecate(clinicA.DB, clinicA.Form, relstore.Int(1)); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts.URL+"/studies/exsmoker/refresh")
	if code != http.StatusOK || body["changed"] != true {
		t.Fatalf("full refresh = %d %v", code, body)
	}
	m := srv.cfg.Observer.Metrics
	if got := m.Counter("refresh.removed").Value(); got != 1 {
		t.Errorf("refresh.removed = %d, want 1", got)
	}
	if got := m.Counter("refresh.runs").Value(); got != 2 {
		t.Errorf("refresh.runs = %d, want 2 (initial + forced)", got)
	}
}

// countPred holds on every row and counts the rows it is tested on: first
// in an AND, it counts the candidates an access path yields.
type countPred struct{ n *int }

func (c countPred) Eval(relstore.Row, *relstore.Schema) (bool, error) {
	*c.n++
	return true, nil
}

func (c countPred) SQL() string { return "TRUE" }

// TestServedTableClusteredOnEntityKey: the served table carries the
// Contributor hash index and none on EntityKey — after the first full
// refresh, after delta ticks persisted as patch records, and after a
// restart that replays them — and a delta's group probe, EntityKey IN
// (keys) AND Contributor = c, tests only the rows a binary search of its
// canonical order finds, not the contributor's Contributor bucket.
func TestServedTableClusteredOnEntityKey(t *testing.T) {
	d := deployWorkload(t, 29, 40)
	check := func(step string) {
		t.Helper()
		table := d.st.cur.Load().table
		if table.HasIndex(etl.EntityKeyColumn) || !table.HasIndex(etl.ContributorColumn) {
			t.Fatalf("%s: EntityKey index %v, Contributor index %v; want the Contributor one alone",
				step, table.HasIndex(etl.EntityKeyColumn), table.HasIndex(etl.ContributorColumn))
		}
		rows := table.Rows().Data
		contrib := rows[len(rows)/2][1]
		var keys []relstore.Value
		for i := len(rows) / 3; i < len(rows) && len(keys) < 3; i += 7 {
			if rows[i][1].Equal(contrib) {
				keys = append(keys, rows[i][0])
			}
		}
		group := relstore.And(relstore.In(relstore.Col(etl.EntityKeyColumn), keys...), relstore.Eq(etl.ContributorColumn, contrib))
		withKeys, inBucket, matches := 0, 0, 0
		for _, r := range rows {
			if slices.ContainsFunc(keys, r[0].Equal) {
				withKeys++
			}
			if r[1].Equal(contrib) {
				inBucket++
			}
			if ok, _ := group.Eval(r, table.Schema()); ok {
				matches++
			}
		}
		tested := 0
		got, err := table.Select(relstore.And(countPred{&tested}, group))
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != matches || matches == 0 {
			t.Fatalf("%s: the group probe returned %d rows, want %d (and at least one)", step, got.Len(), matches)
		}
		if tested > withKeys || withKeys >= inBucket {
			t.Fatalf("%s: the group probe tested %d rows; %d hold its keys, and the %v bucket %d",
				step, tested, withKeys, contrib, inBucket)
		}
	}
	check("after the first full refresh")
	for tick := int64(1); tick <= 3; tick++ {
		if err := workload.Apply(d.contribs, workload.RandomBatch(d.contribs, 300+tick, 8)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.srv.refresh(context.Background(), d.st, etl.DeltaRefresh, "test"); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after delta tick %d", tick))
	}
	if got := d.srv.metrics().Counter("serve.snapshot.records").Value(); got == 0 {
		t.Fatal("the delta ticks persisted no patch record")
	}
	want := d.st.cur.Load().num
	d.start(t)
	if got := d.st.cur.Load().num; got != want {
		t.Fatalf("the restart recovered generation %d, want %d", got, want)
	}
	check("after a restart that replayed the records")
}

// TestDeltaTickAllocsTrackTheChange: a delta tick costs what changed, not
// the table. The same ten 24-mutation ticks, their mutations applied
// outside the count, run at 500 and at 2,000 records per contributor; the
// mallocs of the refresh calls alone may grow by at most a quarter across
// the 4x size. Cloning an EntityKey hash index, one allocation per bucket
// per tick, doubled them.
func TestDeltaTickAllocsTrackTheChange(t *testing.T) {
	perTick := func(n int) float64 {
		d := deployWorkload(t, 42, n)
		var mallocs uint64
		for tick := int64(1); tick <= 10; tick++ {
			if err := workload.Apply(d.contribs, workload.RandomBatch(d.contribs, tick, 24)); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := d.srv.refresh(context.Background(), d.st, etl.DeltaRefresh, "test"); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		}
		return float64(mallocs) / 10
	}
	small, large := perTick(500), perTick(2000)
	t.Logf("mallocs per tick: %.0f at 500 records, %.0f at 2,000", small, large)
	if large > 1.25*small {
		t.Errorf("a tick's mallocs grew %.2fx with a 4x table: %.0f at 500 records, %.0f at 2,000", large/small, small, large)
	}
}
