package etl_test

import (
	"context"
	"sync"
	"testing"

	"guava/internal/etl"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// TestConcurrentScansDuringDeltaRefresh races the predicate scan path against
// in-flight delta refreshes: reader goroutines run selects over the
// warehouse tables while the writer applies mutation batches and
// patches the warehouse through delta refreshes. Run under -race; the assertions
// are that no scan observes a torn row and that the warehouse still matches a
// from-scratch rebuild when the dust settles.
func TestConcurrentScansDuringDeltaRefresh(t *testing.T) {
	const (
		seed   = 17
		n      = 30
		rounds = 6
	)
	ctx := context.Background()
	u, err := buildEquivUniverse(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	w := relstore.NewDB("warehouse")
	cursors := make(map[string]*etl.DeltaCursors)
	for _, s := range u.studies {
		cur := etl.NewDeltaCursors()
		if _, err := s.Refresh(ctx, w, etl.RefreshOptions{Cursors: cur}); err != nil {
			t.Fatal(err)
		}
		cursors[s.Spec.Name] = cur
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			preds := []relstore.Pred{
				nil,
				relstore.IsNotNull(relstore.Col(etl.EntityKeyColumn)),
				relstore.Eq(etl.ContributorColumn, relstore.Str("contrib1")),
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range u.studies {
					table, err := w.Table(s.Output.Table)
					if err != nil {
						t.Error(err)
						return
					}
					rows, err := table.Select(preds[(g+i)%len(preds)])
					if err != nil {
						t.Error(err)
						return
					}
					arity := table.Schema().Arity()
					for _, r := range rows.Data {
						if len(r) != arity {
							t.Errorf("torn row: arity %d, want %d", len(r), arity)
							return
						}
					}
				}
			}
		}(g)
	}

	for r := 0; r < rounds; r++ {
		batch := workload.RandomBatch(u.contribs, seed*100+int64(r), 10)
		if err := workload.Apply(u.contribs, batch); err != nil {
			t.Fatal(err)
		}
		for _, s := range u.studies {
			if _, err := s.Refresh(ctx, w, etl.RefreshOptions{Mode: etl.DeltaRefresh, Cursors: cursors[s.Spec.Name]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Convergence: the raced warehouse equals a from-scratch rebuild.
	fresh := relstore.NewDB("rebuild")
	for _, s := range u.studies {
		if _, err := s.Refresh(ctx, fresh, etl.RefreshOptions{}); err != nil {
			t.Fatal(err)
		}
		got, err := canonicalBytes(w, s.Output.Table)
		if err != nil {
			t.Fatal(err)
		}
		want, err := canonicalBytes(fresh, s.Output.Table)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("study %s: raced warehouse diverged from rebuild", s.Spec.Name)
		}
	}
}
