package main

import (
	"context"
	"fmt"
	"time"

	"guava/internal/baseline"
	"guava/internal/etl"
	"guava/internal/workload"
)

// expR10: free-text extraction throughput and quarantine overhead. The Notes
// contributor stores report documents, not rows — every read runs the
// compiled extractor over the whole corpus. This experiment measures what
// that costs: the strict extraction rate in reports/s, the diverting read's
// overhead over a clean corpus (the price of the quarantine seam when
// nothing misses) and over a corpus with out-of-vocabulary reports (misses
// collected with span provenance instead of failing the read), and the
// end-to-end tax of adding the text arm to the reference study against the
// three form-backed arms alone. minExtractRPS > 0 turns a too-slow strict
// extraction rate into an error — the CI regression gate.
func expR10(seed int64, n int, minExtractRPS float64) {
	fmt.Printf("== R10: free-text extraction throughput and quarantine overhead (%d reports) ==\n", n)
	const reps = 30
	ctx := context.Background()

	notes, err := workload.BuildNotes(seed+3, n)
	if err != nil {
		fail(err)
	}

	// Strict read: every report must extract cleanly or the read fails.
	strictDur, err := timeIt(reps, func() error {
		_, err := notes.Stack.Read(notes.DB, notes.Info)
		return err
	})
	if err != nil {
		fail(err)
	}
	extractRPS := float64(n) / strictDur.Seconds()

	// Diverting read over the same clean corpus: the quarantine seam's cost
	// when it never fires.
	cleanDivDur, err := timeIt(reps, func() error {
		_, misses, err := notes.Stack.ReadDiverting(ctx, notes.DB, notes.Info, nil)
		if err == nil && len(misses) != 0 {
			return fmt.Errorf("clean corpus diverted %d reports", len(misses))
		}
		return err
	})
	if err != nil {
		fail(err)
	}

	// Diverting read with ~5% out-of-vocabulary reports injected: the misses
	// divert with report-span provenance while the clean rows flow through.
	corrupt := n/20 + 1
	dirty, err := workload.BuildNotes(seed+3, n)
	if err != nil {
		fail(err)
	}
	for i := 0; i < corrupt; i++ {
		id := dirty.MaxID() + int64(i+1)
		if err := dirty.InjectReport(id, workload.CorruptNoteBody(id)); err != nil {
			fail(err)
		}
	}
	var diverted, kept int
	dirtyDivDur, err := timeIt(reps, func() error {
		rows, misses, err := dirty.Stack.ReadDiverting(ctx, dirty.DB, dirty.Info, nil)
		if err != nil {
			return err
		}
		diverted, kept = len(misses), rows.Len()
		return nil
	})
	if err != nil {
		fail(err)
	}
	if diverted != corrupt || kept != n {
		fail(fmt.Errorf("R10: diverting read kept %d rows and diverted %d, want %d and %d", kept, diverted, n, corrupt))
	}

	fmt.Printf("%-44s %14s %12s %10s\n", "read path", "read-all", "reports/s", "vs strict")
	row := func(name string, dur time.Duration, docs int) {
		fmt.Printf("%-44s %14s %12.0f %9.2fx\n",
			name, dur, float64(docs)/dur.Seconds(), float64(dur)/float64(strictDur))
	}
	row("strict extract (clean corpus)", strictDur, n)
	row("diverting extract (clean corpus)", cleanDivDur, n)
	row(fmt.Sprintf("diverting extract (%d diverted of %d)", diverted, n+corrupt), dirtyDivDur, n+corrupt)

	// End-to-end: the reference study over the three form-backed arms alone
	// vs with the Notes text arm added, both through the resilient runner
	// under a quarantine budget (the runstudy/studyd configuration).
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		fail(err)
	}
	policy := etl.RunPolicy{MaxQuarantinedRows: 100}
	const workers = 4
	study := func(cs []*workload.Contributor) (time.Duration, int, int) {
		spec, err := baseline.ReferenceSpec(cs)
		if err != nil {
			fail(err)
		}
		compiled, err := etl.Compile(spec)
		if err != nil {
			fail(err)
		}
		var rows, quarantined int
		dur, err := timeIt(reps, func() error {
			out, rep, err := compiled.RunResilient(ctx, policy, workers)
			if err == nil {
				rows, quarantined = out.Len(), rep.Quarantined
			}
			return err
		})
		if err != nil {
			fail(err)
		}
		return dur, rows, quarantined
	}
	dbDur, dbRows, _ := study(contribs)
	mixedDur, mixedRows, _ := study(append(contribs[:len(contribs):len(contribs)], notes))
	quarDur, quarRows, quarantined := study(append(contribs[:len(contribs):len(contribs)], dirty))

	fmt.Printf("%-44s %14s %8s %10s\n", "study", "run", "rows", "vs 3-arm")
	srow := func(name string, dur time.Duration, rows int) {
		fmt.Printf("%-44s %14s %8d %9.2fx\n", name, dur, rows, float64(dur)/float64(dbDur))
	}
	srow("reference, 3 form arms", dbDur, dbRows)
	srow("reference, + Notes text arm", mixedDur, mixedRows)
	srow(fmt.Sprintf("reference, + dirty Notes (%d quarantined)", quarantined), quarDur, quarRows)
	fmt.Printf("text-arm overhead: %+.1f%%; quarantine overhead vs clean mixed: %+.1f%%\n",
		(float64(mixedDur)/float64(dbDur)-1)*100,
		(float64(quarDur)/float64(mixedDur)-1)*100)
	if minExtractRPS > 0 && extractRPS < minExtractRPS {
		fail(fmt.Errorf("R10: strict extraction rate %.0f reports/s below gate %.0f", extractRPS, minExtractRPS))
	}
	fmt.Println()
}
