package workload

import (
	"context"
	"testing"

	"guava/internal/relstore"
)

// TestBuildNotesRoundTrip: ground truth dictated into progress notes must
// read back through the extractor exactly as the form contributors read
// back through their table layouts.
func TestBuildNotesRoundTrip(t *testing.T) {
	c, err := BuildNotes(7, 40)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Stack.Read(c.DB, c.Info)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != len(c.Truths) {
		t.Fatalf("read %d rows, want %d", len(rows.Data), len(c.Truths))
	}
	s := rows.Schema
	byID := map[int64]relstore.Row{}
	for _, r := range rows.Data {
		byID[r[s.Index("NoteID")].AsInt()] = r
	}
	for _, tr := range c.Truths {
		r, ok := byID[tr.ID]
		if !ok {
			t.Fatalf("truth %d missing from extraction", tr.ID)
		}
		if got := r[s.Index("SmokeStatus")].AsString(); got != tr.Smoking {
			t.Errorf("record %d: SmokeStatus = %q, want %q", tr.ID, got, tr.Smoking)
		}
		packs := r[s.Index("TobaccoPacks")]
		if tr.Smoking == "Current" {
			if packs.IsNull() || packs.AsFloat() != tr.PacksPerDay {
				t.Errorf("record %d: TobaccoPacks = %s, want %v", tr.ID, packs, tr.PacksPerDay)
			}
		} else if !packs.IsNull() {
			t.Errorf("record %d: TobaccoPacks = %s, want NULL", tr.ID, packs)
		}
		if got := r[s.Index("HypoxiaTransient")].AsBool(); got != tr.TransientHypoxia {
			t.Errorf("record %d: HypoxiaTransient = %v, want %v", tr.ID, got, tr.TransientHypoxia)
		}
	}
}

// TestNotesCorruptReportDiverts: an injected out-of-vocabulary report fails
// the strict read, diverts under ReadDiverting with report-span provenance,
// and lands in the journal so a delta refresh would pick it up.
func TestNotesCorruptReportDiverts(t *testing.T) {
	c, err := BuildNotes(11, 15)
	if err != nil {
		t.Fatal(err)
	}
	bad := c.MaxID() + 1
	if err := c.InjectReport(bad, CorruptNoteBody(bad)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stack.Read(c.DB, c.Info); err == nil {
		t.Fatal("strict read over a corrupt corpus must fail")
	}
	rows, misses, err := c.Stack.ReadDiverting(context.Background(), c.DB, c.Info, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 15 || len(misses) != 1 {
		t.Fatalf("got %d rows, %d misses; want 15 rows, 1 miss", len(rows.Data), len(misses))
	}
	m := misses[0]
	if m.SourceKind != "report-span" || !m.Key.Equal(relstore.Int(bad)) {
		t.Errorf("miss provenance = %+v, want report-span for report %d", m, bad)
	}
	hw, err := c.Stack.Journal.HighWaterMark(c.DB, c.Info)
	if err != nil {
		t.Fatal(err)
	}
	keys, _, err := c.Stack.Journal.ChangedSince(c.DB, c.Info, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hw != 16 || len(keys) != 16 {
		t.Errorf("journal hw = %d with %d keys, want 16/16 (inject must journal)", hw, len(keys))
	}
}
