package main

import (
	"context"
	"fmt"
	"time"

	"guava/internal/baseline"
	"guava/internal/etl"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// expR6: incremental refresh scaling. The periodic-inclusion cost of a full
// recompute grows with the warehouse — every contributor record is
// re-extracted and re-classified on every tick — while the delta path's
// cost tracks the number of changed entities, which a steady trickle of
// contributor edits keeps constant. The harness replays the same tick at
// warehouse scales 100x apart: each tick applies a fixed-size random
// mutation batch and refreshes, once as a delta (journal scan, then the
// compiled workflow scoped to the changed keys, then the group-wise patch)
// and once through the full plan.
// Flatness is the ratio of delta tick latency at the largest scale to the
// smallest; -max-flat turns a too-steep ratio into an error, and
// -min-delta-speedup gates the delta-vs-full advantage at the largest
// scale — the CI regression gates for the incremental path.
func expR6(seed int64, batch int, maxFlat, minDeltaSpeedup float64) {
	scales := []int{20, 200, 2000}
	fmt.Printf("== R6: incremental refresh vs warehouse scale (%d mutations/tick, scales %v) ==\n", batch, scales)

	type result struct {
		n           int
		rows        int
		delta, full time.Duration
	}
	const reps = 6
	var results []result
	for _, n := range scales {
		contribs, err := workload.BuildAll(seed, n)
		if err != nil {
			fail(err)
		}
		spec, err := baseline.ReferenceSpec(contribs)
		if err != nil {
			fail(err)
		}
		compiled, err := etl.Compile(spec)
		if err != nil {
			fail(err)
		}
		warehouse := relstore.NewDB("warehouse")
		cursors := etl.NewDeltaCursors()
		delta := etl.RefreshOptions{Mode: etl.DeltaRefresh, Cursors: cursors}
		if _, err := compiled.Refresh(context.Background(), warehouse, etl.RefreshOptions{Cursors: cursors}); err != nil {
			fail(err)
		}

		// One untimed warm-up tick absorbs the first-call setup cost (the
		// delta path builds the warehouse EntityKey/Contributor indexes on
		// its first run) so the timed reps measure the steady state.
		muts := workload.RandomBatch(contribs, seed+int64(n*100+99), batch)
		if err := workload.Apply(contribs, muts); err != nil {
			fail(err)
		}
		if _, err := compiled.Refresh(context.Background(), warehouse, delta); err != nil {
			fail(err)
		}

		// Delta ticks: every rep is a real refresh — fresh mutations land in
		// the journals, then only those entities are recomputed and patched.
		// The mutations themselves are applied outside the timed region:
		// contributors pay that cost identically under either strategy.
		var deltaSum time.Duration
		for tick := 0; tick < reps; tick++ {
			muts := workload.RandomBatch(contribs, seed+int64(n*100+tick), batch)
			if err := workload.Apply(contribs, muts); err != nil {
				fail(err)
			}
			t0 := time.Now()
			if _, err := compiled.Refresh(context.Background(), warehouse, delta); err != nil {
				fail(err)
			}
			deltaSum += time.Since(t0)
		}
		deltaDur := deltaSum / reps

		// Full ticks over the same (now stable) state: the whole plan re-runs
		// and the merge finds everything unchanged — the steady-state cost of
		// periodic inclusion without journals.
		fullDur, err := timeIt(reps, func() error {
			_, err := compiled.Refresh(context.Background(), warehouse, etl.RefreshOptions{})
			return err
		})
		if err != nil {
			fail(err)
		}

		table, err := warehouse.Table(compiled.Output.Table)
		if err != nil {
			fail(err)
		}
		results = append(results, result{n: n, rows: table.Len(), delta: deltaDur, full: fullDur})
	}

	fmt.Printf("%-12s %12s %14s %14s %10s\n", "records", "study rows", "delta tick", "full tick", "speedup")
	for _, r := range results {
		fmt.Printf("%-12d %12d %14s %14s %9.1fx\n", r.n, r.rows, r.delta, r.full, float64(r.full)/float64(r.delta))
	}
	first, last := results[0], results[len(results)-1]
	flat := float64(last.delta) / float64(first.delta)
	growth := float64(last.rows) / float64(first.rows)
	fmt.Printf("delta tick latency grew %.2fx while the warehouse grew %.0fx\n", flat, growth)
	if maxFlat > 0 && flat > maxFlat {
		fail(fmt.Errorf("R6: delta latency grew %.2fx across the scales, above the %.2fx flatness gate", flat, maxFlat))
	}
	speedup := float64(last.full) / float64(last.delta)
	if minDeltaSpeedup > 0 && speedup < minDeltaSpeedup {
		fail(fmt.Errorf("R6: delta speedup %.1fx at the largest scale below the %.1fx gate", speedup, minDeltaSpeedup))
	}
	fmt.Println()
}
