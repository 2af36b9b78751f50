package serve

import (
	"bytes"
	"context"
	"net/http"
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
