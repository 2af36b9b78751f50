package etl_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"guava/internal/baseline"
	"guava/internal/etl"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// These are the acceptance tests for the free-text contributor riding the
// full ETL stack: a mixed DB+text study extracts through the textsrc layout,
// corrupt reports divert into row-level quarantine with report-span
// provenance under the budget and degrade per RunPolicy beyond it, and a
// delta refresh over appended reports converges byte-identically with a
// full recompute.

// buildMixed assembles the three form contributors plus the Notes text
// contributor (with `corrupt` out-of-vocabulary reports injected) and
// compiles the reference study over all four.
func buildMixed(t *testing.T, seed int64, n, corrupt int) ([]*workload.Contributor, *etl.Compiled) {
	t.Helper()
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	notes, err := workload.BuildNotes(seed+3, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < corrupt; i++ {
		id := notes.MaxID() + int64(i+1)
		if err := notes.InjectReport(id, workload.CorruptNoteBody(id)); err != nil {
			t.Fatal(err)
		}
	}
	contribs = append(contribs, notes)
	spec, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return contribs, compiled
}

// TestMixedStudyRuns: the reference study over DB + text contributors unions
// all four arms, and the Notes rows classify exactly like the form-backed
// rows built from the same truth distribution.
func TestMixedStudyRuns(t *testing.T) {
	_, compiled := buildMixed(t, 3, 25, 0)
	out, err := compiled.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4*25 {
		t.Fatalf("mixed study rows = %d, want %d", out.Len(), 4*25)
	}
	perContrib := map[string]int{}
	for _, r := range out.Data {
		perContrib[r[1].AsString()]++
	}
	for _, name := range []string{"CORI", "EndoSoft", "MedRecord", "Notes"} {
		if perContrib[name] != 25 {
			t.Errorf("contributor %s: %d rows, want 25", name, perContrib[name])
		}
	}
}

// TestTextQuarantineProvenance: corrupt reports within budget divert into
// the dead-letter relation carrying report-span provenance — report id,
// byte range, and the extraction rule that missed — while every clean row
// flows through.
func TestTextQuarantineProvenance(t *testing.T) {
	const n, corrupt = 20, 2
	_, compiled := buildMixed(t, 5, n, corrupt)
	policy := etl.RunPolicy{MaxAttempts: 1, MaxQuarantinedRows: 5}
	out, rep, err := compiled.RunResilient(context.Background(), policy, 1)
	if err != nil {
		t.Fatalf("run with quarantine budget failed: %v", err)
	}
	if out.Len() != 4*n {
		t.Fatalf("clean rows = %d, want %d", out.Len(), 4*n)
	}
	if rep.Quarantined != corrupt {
		t.Fatalf("quarantined = %d, want %d", rep.Quarantined, corrupt)
	}
	ents := rep.QuarantineEntries()
	if len(ents) != corrupt {
		t.Fatalf("entries = %d, want %d", len(ents), corrupt)
	}
	for i, e := range ents {
		id := int64(n + i + 1)
		if e.Contributor != "Notes" || e.Step != "extract/Notes" {
			t.Errorf("entry %d: contributor/step = %s/%s", i, e.Contributor, e.Step)
		}
		if e.Rule != "NoteReport/HISTORY/SmokeStatus" {
			t.Errorf("entry %d: rule = %q", i, e.Rule)
		}
		if e.SourceKind != "report-span" {
			t.Errorf("entry %d: source kind = %q", i, e.SourceKind)
		}
		if want := fmt.Sprintf("report %d bytes 25-52", id); e.Locator != want {
			t.Errorf("entry %d: locator = %q, want %q", i, e.Locator, want)
		}
		if e.RowKey != fmt.Sprint(id) {
			t.Errorf("entry %d: row key = %q, want %d", i, e.RowKey, id)
		}
	}
}

// TestTextQuarantineBudgetDegrades: more corrupt reports than the budget
// allows degrade per RunPolicy — a strict run fails its extract step with
// ErrQuarantineBudget, and a ContinueOnError run completes on the surviving
// contributors with the Notes arm reported failed and its dependents
// skipped.
func TestTextQuarantineBudgetDegrades(t *testing.T) {
	const n, corrupt, budget = 15, 3, 2

	_, strict := buildMixed(t, 8, n, corrupt)
	policy := etl.RunPolicy{MaxAttempts: 1, MaxQuarantinedRows: budget}
	if _, _, err := strict.RunResilient(context.Background(), policy, 1); !errors.Is(err, etl.ErrQuarantineBudget) {
		t.Fatalf("strict run error = %v, want ErrQuarantineBudget", err)
	}

	_, degraded := buildMixed(t, 8, n, corrupt)
	policy.ContinueOnError = true
	out, rep, err := degraded.RunResilient(context.Background(), policy, 1)
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	if out.Len() != 3*n {
		t.Fatalf("degraded rows = %d, want the three surviving arms' %d", out.Len(), 3*n)
	}
	for _, r := range out.Data {
		if r[1].AsString() == "Notes" {
			t.Fatal("degraded output contains rows from the failed Notes arm")
		}
	}
	res := rep.Step("extract/Notes")
	if res.Status != etl.StepFailed || !errors.Is(res.Err, etl.ErrQuarantineBudget) {
		t.Fatalf("extract/Notes = %v (%v), want failed on the budget", res.Status, res.Err)
	}
}

// TestTextAppendDeltaEqualsFull: reports appended after the initial full
// refresh are journaled, so an incremental delta refresh patches the
// warehouse into exactly the state a from-scratch full recompute reaches —
// canonical bytes equal.
func TestTextAppendDeltaEqualsFull(t *testing.T) {
	const seed, n, appended = 11, 30, 6
	ctx := context.Background()

	appendReports := func(cs []*workload.Contributor) {
		t.Helper()
		notes := cs[len(cs)-1]
		extended := workload.Generate(seed+3, n+appended)
		for _, tr := range extended[n:] {
			if err := notes.InsertTruth(tr); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Delta universe: full refresh, pin cursors, append, delta refresh.
	dc, dstudy := buildMixed(t, seed, n, 0)
	dw := relstore.NewDB("warehouse_delta")
	cursors := etl.NewDeltaCursors()
	if _, err := dstudy.Refresh(ctx, dw, etl.RefreshOptions{Cursors: cursors}); err != nil {
		t.Fatal(err)
	}
	appendReports(dc)
	report, err := dstudy.Refresh(ctx, dw, etl.RefreshOptions{Mode: etl.DeltaRefresh, Cursors: cursors})
	if err != nil {
		t.Fatal(err)
	}
	if report.Keys != appended || report.Stats.Added != appended {
		t.Fatalf("delta saw %d keys, %d added; want %d appended reports", report.Keys, report.Stats.Added, appended)
	}

	// Full universe: the same appends, then one from-scratch refresh.
	fc, fstudy := buildMixed(t, seed, n, 0)
	appendReports(fc)
	fw := relstore.NewDB("warehouse_full")
	if _, err := fstudy.Refresh(ctx, fw, etl.RefreshOptions{}); err != nil {
		t.Fatal(err)
	}

	table := dstudy.Output.Table
	db, err := canonicalBytes(dw, table)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := canonicalBytes(fw, table)
	if err != nil {
		t.Fatal(err)
	}
	if len(db) == 0 || !bytes.Equal(db, fb) {
		t.Fatalf("delta warehouse diverged from full recompute\n--- delta ---\n%s\n--- full ---\n%s", db, fb)
	}
}
