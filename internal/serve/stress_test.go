package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/relstore"
)

// testGen reads a study's current generation number (0 when none yet).
func testGen(st *servedStudy) int64 {
	if g := st.cur.Load(); g != nil {
		return g.num
	}
	return 0
}

// testPartGen reads one partition's generation from the current snapshot.
func testPartGen(st *servedStudy, contributor string) int64 {
	if g := st.cur.Load(); g != nil {
		return g.partGens[contributor]
	}
	return 0
}

// TestExtractRefreshRace runs concurrent extract readers against a writer
// forcing data-changing refreshes on the same study — the shape the race
// detector needs to vouch for the serving path. Every extract must see a
// complete snapshot: a total that is one of the sizes the warehouse
// actually passes through, never a torn in-between count, and a body whose
// row count matches its own header.
func TestExtractRefreshRace(t *testing.T) {
	spec := fixtureSpec(t, goodHabits)
	srv := NewServer(Config{Observer: obs.NewObserver(), MaxInFlight: 64})
	if err := srv.AddStudy(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	st, _ := srv.study("exsmoker")

	const (
		readers  = 8
		reads    = 50
		writes   = 20
		baseRows = 4
	)
	valid := make(map[int]bool, writes+1)
	for i := 0; i <= writes; i++ {
		valid[baseRows+i] = true
	}

	var wg sync.WaitGroup
	clinicA := spec.Contributors[0]

	// Writer: submit a new surgical report, then refresh, repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if err := clinicA.Stack.WriteValues(clinicA.DB, clinicA.Form, map[string]relstore.Value{
				"ProcedureID":      relstore.Int(int64(100 + i)),
				"PacksPerDay":      relstore.Float(float64(i)),
				"Hypoxia":          relstore.Bool(i%2 == 0),
				"SurgeryPerformed": relstore.Bool(true),
			}); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if _, err := srv.refresh(context.Background(), st, etl.FullRefresh, "stress"); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
		}
	}()

	// Readers: extract through the real predicate + snapshot path. Vary
	// the query so some requests miss the result cache and read the table.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := 0; j < reads; j++ {
				query, err := parseExtractQuery(st.schema, map[string][]string{
					"limit": {fmt.Sprint(100 + j%3)},
				})
				if err != nil {
					t.Errorf("parse: %v", err)
					return
				}
				g := st.pin()
				if g == nil {
					t.Error("pin returned nil on a ready study")
					return
				}
				rows, err := g.table.Select(query.pred)
				// The pinned snapshot must be internally consistent: its
				// row count matches its own stamped generation.
				wantRows := baseRows + int(g.num) - 1
				g.unpin()
				if err != nil {
					t.Errorf("select: %v", err)
					return
				}
				if !valid[rows.Len()] {
					t.Errorf("torn snapshot: %d rows", rows.Len())
					return
				}
				if rows.Len() != wantRows {
					t.Errorf("mixed-generation read: %d rows at generation %d (want %d)", rows.Len(), wantRows+1-baseRows, wantRows)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// After the dust settles the current generation holds every report.
	g := st.pin()
	if g == nil {
		t.Fatal("no generation after stress run")
	}
	defer g.unpin()
	if got := g.table.Len(); got != baseRows+writes {
		t.Errorf("final rows = %d, want %d", got, baseRows+writes)
	}
	if gen := g.num; gen != int64(1+writes) {
		t.Errorf("generation = %d, want %d", gen, 1+writes)
	}
}
