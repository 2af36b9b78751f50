package etl_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"guava/internal/baseline"
	"guava/internal/etl"
	"guava/internal/etl/faulty"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// The delta refresh's correctness anchor: for any warehouse state w and any
// mutation history d, deltaRefresh(w, d) must be observationally identical to
// fullRefresh(apply(w, d)) — byte-identical warehouse relations and the same
// Added/Updated counts. The harness drives two universes built from the same
// seed (so they start bit-identical), applies the same randomized mutation
// batches to both, refreshes one by delta and the other in full, and
// compares after every round. Under an injected fault — poison rows,
// corrupt appended reports, a contributor failing for a round — both
// universes suffer it alike and the runs carry a quarantine budget: the
// delta's dead-letter entries must then be the full run's restricted to the
// keys the delta read. On failure the offending history is greedily shrunk
// to a minimal counterexample before reporting.

// equivUniverse is one self-contained world: the three form contributors
// plus the free-text Notes contributor, and the two studies studyd serves
// over them (reference and its cohort subset).
type equivUniverse struct {
	contribs []*workload.Contributor
	studies  []*etl.Compiled
	// chaos holds the fault injectors a fault installed, one per study.
	chaos []*faulty.Chaos
}

// contributor returns the universe's contributor with the given name.
func (u *equivUniverse) contributor(name string) *workload.Contributor {
	for _, c := range u.contribs {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// equivFault is one failure the harness injects into both universes alike.
type equivFault struct {
	name string
	// install instruments a freshly built universe.
	install func(u *equivUniverse)
	// round runs before refresh round ri (-1: the initial load).
	round func(u *equivUniverse, ri int) error
	// failed names the contributor whose chain fails in round ri, if any.
	failed func(ri int) string
}

// faultPolicy is the run policy every faulted refresh runs under.
var faultPolicy = etl.RunPolicy{MaxQuarantinedRows: 64, ContinueOnError: true}

// equivFaults are the faults the repo can inject, each exercised over the
// same seeded histories as the clean harness.
var equivFaults = []equivFault{
	{
		// NULL keys planted in CORI's extract output for a fixed key set:
		// the records quarantine at select wherever they are read.
		name: "poison-rows",
		install: func(u *equivUniverse) {
			var keys []relstore.Value
			for k := int64(3); k <= 1000; k += 7 {
				keys = append(keys, relstore.Int(k))
			}
			col := u.contributor("CORI").Info.KeyColumn
			for _, s := range u.studies {
				faulty.Wrap(s.Workflow, "extract/CORI", func(wrapped etl.Component) *faulty.Chaos {
					return &faulty.Chaos{Wrapped: wrapped, PoisonRows: len(keys), PoisonColumn: col, PoisonKeys: keys}
				})
			}
		},
	},
	{
		// A report whose smoking status is out of vocabulary lands in
		// Notes every round; it quarantines with report-span provenance.
		name: "corrupt-notes",
		round: func(u *equivUniverse, ri int) error {
			if ri < 0 {
				return nil
			}
			id := int64(100000 + ri)
			return u.contributor("Notes").InjectReport(id, workload.CorruptNoteBody(id))
		},
	},
	{
		// EndoSoft's extract fails for round 1 only.
		name: "failing-contributor",
		install: func(u *equivUniverse) {
			for _, s := range u.studies {
				u.chaos = append(u.chaos, faulty.Wrap(s.Workflow, "extract/EndoSoft", func(wrapped etl.Component) *faulty.Chaos {
					return &faulty.Chaos{Wrapped: wrapped}
				}))
			}
		},
		round: func(u *equivUniverse, ri int) error {
			for _, ch := range u.chaos {
				ch.FailForever = ri == 1
			}
			return nil
		},
		failed: func(ri int) string {
			if ri == 1 {
				return "EndoSoft"
			}
			return ""
		},
	},
}

// buildEquivUniverse constructs the contributors and compiles the reference
// and cohort studies, mirroring studyd's -with-text setup. Including Notes
// makes the randomized property cover the text path too: inserts dictate
// reports, updates re-dictate stored documents, and the delta refresh
// re-extracts exactly the journaled keys.
func buildEquivUniverse(seed int64, n int) (*equivUniverse, error) {
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		return nil, err
	}
	notes, err := workload.BuildNotes(seed+3, n)
	if err != nil {
		return nil, err
	}
	contribs = append(contribs, notes)
	ref, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		return nil, err
	}
	cohort, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		return nil, err
	}
	cohort.Name = "cohort"
	cohort.Columns = cohort.Columns[:1]
	for _, c := range cohort.Contributors {
		delete(c.Classifiers, "Hypoxia_D1")
	}
	var studies []*etl.Compiled
	for _, spec := range []*etl.StudySpec{ref, cohort} {
		compiled, err := etl.Compile(spec)
		if err != nil {
			return nil, err
		}
		studies = append(studies, compiled)
	}
	return &equivUniverse{contribs: contribs, studies: studies}, nil
}

// canonicalBytes serializes a warehouse study table sorted on every column,
// so physical row order (which legitimately differs between the delta patch
// and a full merge) cannot mask or fake a divergence.
func canonicalBytes(db *relstore.DB, table string) ([]byte, error) {
	if !db.Has(table) {
		return nil, nil
	}
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	rows := t.Rows()
	sorted, err := relstore.SortBy(rows, rows.Schema.Names()...)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := relstore.WriteTyped(&buf, sorted); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// compareWarehouses returns a description of the first relation mismatch
// between the two warehouses, or "".
func compareWarehouses(du *equivUniverse, dw, fw *relstore.DB) (string, error) {
	for _, study := range du.studies {
		table := study.Output.Table
		db, err := canonicalBytes(dw, table)
		if err != nil {
			return "", err
		}
		fb, err := canonicalBytes(fw, table)
		if err != nil {
			return "", err
		}
		if !bytes.Equal(db, fb) {
			return fmt.Sprintf("relation %s diverged:\n--- delta ---\n%s\n--- full ---\n%s", table, db, fb), nil
		}
	}
	return "", nil
}

// checkEquivalence replays the mutation history through both refresh paths,
// under the fault when one is given, and returns a description of the
// first divergence ("" when equivalent).
func checkEquivalence(seed int64, n int, history [][]workload.Mutation, fault *equivFault) (string, error) {
	ctx := context.Background()
	policy := etl.RunPolicy{}
	var du, fu *equivUniverse
	for _, u := range []**equivUniverse{&du, &fu} {
		var err error
		if *u, err = buildEquivUniverse(seed, n); err != nil {
			return "", err
		}
		if fault != nil {
			policy = faultPolicy
			if fault.install != nil {
				fault.install(*u)
			}
		}
	}
	round := func(ri int) error {
		if fault == nil || fault.round == nil {
			return nil
		}
		if err := fault.round(du, ri); err != nil {
			return err
		}
		return fault.round(fu, ri)
	}
	dw := relstore.NewDB("warehouse_delta")
	fw := relstore.NewDB("warehouse_full")

	// Initial load: both universes run a full refresh; the delta universe's
	// refresh also pins its cursors at the journals' high-water marks.
	if err := round(-1); err != nil {
		return "", err
	}
	cursors := make(map[string]*etl.DeltaCursors)
	for si := range du.studies {
		cur := etl.NewDeltaCursors()
		if _, err := du.studies[si].Refresh(ctx, dw, etl.RefreshOptions{Policy: policy, Cursors: cur}); err != nil {
			return "", err
		}
		cursors[du.studies[si].Spec.Name] = cur
		if _, err := fu.studies[si].Refresh(ctx, fw, etl.RefreshOptions{Policy: policy}); err != nil {
			return "", err
		}
	}
	if d, err := compareWarehouses(du, dw, fw); err != nil || d != "" {
		return d, err
	}

	var totalKeys, totalWrites, faulted int
	for ri, batch := range history {
		if err := workload.Apply(du.contribs, batch); err != nil {
			return "", err
		}
		if err := workload.Apply(fu.contribs, batch); err != nil {
			return "", err
		}
		if err := round(ri); err != nil {
			return "", err
		}
		for si := range du.studies {
			ds := du.studies[si]
			cur := cursors[ds.Spec.Name]
			before := cur.Snapshot()
			inScope, err := scopedEntries(du, cur)
			if err != nil {
				return "", err
			}
			report, err := ds.Refresh(ctx, dw, etl.RefreshOptions{Mode: etl.DeltaRefresh, Policy: policy, Cursors: cur})
			if err != nil {
				return "", err
			}
			totalKeys += report.Keys
			totalWrites += report.Stats.Added + report.Stats.Updated
			full, err := fu.studies[si].Refresh(ctx, fw, etl.RefreshOptions{Policy: policy})
			if err != nil {
				return "", err
			}
			// Added and Updated are warehouse writes — provably identical
			// on both paths. Unchanged/Total are delta-scoped by design and
			// deliberately not compared.
			if report.Stats.Added != full.Stats.Added || report.Stats.Updated != full.Stats.Updated ||
				report.Stats.Changed() != full.Stats.Changed() {
				return fmt.Sprintf("round %d study %s stats diverged: delta %+v vs full %+v",
					ri, ds.Spec.Name, report.Stats, full.Stats), nil
			}
			var got, want []etl.QuarantineEntry
			if report.Run != nil {
				got = report.Run.QuarantineEntries()
				faulted += len(got) + len(report.Run.DegradedContributors)
			}
			for _, e := range full.Run.QuarantineEntries() {
				if inScope(e) {
					want = append(want, e)
				}
			}
			if (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
				return fmt.Sprintf("round %d study %s quarantine diverged:\n--- delta ---\n%+v\n--- full, in scope ---\n%+v",
					ri, ds.Spec.Name, got, want), nil
			}
			if fault != nil && fault.failed != nil {
				if name := fault.failed(ri); name != "" && cur.Get(name) != before[name] {
					return fmt.Sprintf("round %d study %s: failed contributor %s moved its cursor %d -> %d",
						ri, ds.Spec.Name, name, before[name], cur.Get(name)), nil
				}
			}
		}
		if d, err := compareWarehouses(du, dw, fw); err != nil || d != "" {
			if d != "" {
				d = fmt.Sprintf("after round %d: %s", ri, d)
			}
			return d, err
		}
	}
	// Guard the property against vacuity: a history that never produced a
	// non-empty delta (or never wrote to the warehouse) tests nothing.
	if len(history) > 0 && (totalKeys == 0 || totalWrites == 0) {
		return "", fmt.Errorf("vacuous harness: %d delta keys, %d warehouse writes across %d rounds",
			totalKeys, totalWrites, len(history))
	}
	if len(history) > 0 && fault != nil && faulted == 0 {
		return "", fmt.Errorf("vacuous fault %s: no delta quarantined a row or degraded a contributor", fault.name)
	}
	return "", nil
}

// scopedEntries returns whether a quarantine entry concerns a record the
// next delta reads: one whose key is journaled past the cursors. Entries
// name their record by key (source misses) or, when the key itself was
// poisoned to NULL, by the rest of the row; both identities of every
// scoped record are collected.
func scopedEntries(u *equivUniverse, cursors *etl.DeltaCursors) (func(etl.QuarantineEntry) bool, error) {
	ids := map[string]bool{}
	for _, c := range u.contribs {
		keys, _, err := c.Stack.Journal.ChangedSince(c.DB, c.Info, cursors.Get(c.Name))
		if err != nil {
			return nil, err
		}
		rows, _, err := c.Stack.ReadDiverting(context.Background(), c.DB, c.Info, append([]relstore.Value{}, keys...))
		if err != nil {
			return nil, err
		}
		ki := rows.Schema.Index(c.Info.KeyColumn)
		for _, r := range rows.Data {
			poisoned := r.Clone()
			poisoned[ki] = relstore.Null()
			ids[c.Name+"\x00"+etl.RenderRowForTest(poisoned, rows.Schema)] = true
		}
		for _, k := range keys {
			ids[c.Name+"\x00"+k.Display()] = true
		}
	}
	return func(e etl.QuarantineEntry) bool {
		return ids[e.Contributor+"\x00"+e.RowKey] || ids[e.Contributor+"\x00"+e.RowData]
	}, nil
}

// shrinkHistory greedily removes single mutations while the divergence
// persists, yielding a (locally) minimal failing history.
func shrinkHistory(seed int64, n int, history [][]workload.Mutation, fault *equivFault) [][]workload.Mutation {
	improved := true
	for improved {
		improved = false
		for ri := range history {
			for mi := 0; mi < len(history[ri]); mi++ {
				cand := make([][]workload.Mutation, len(history))
				for i := range history {
					if i != ri {
						cand[i] = history[i]
						continue
					}
					cand[i] = append(append([]workload.Mutation{}, history[i][:mi]...), history[i][mi+1:]...)
				}
				d, err := checkEquivalence(seed, n, cand, fault)
				if err == nil && d != "" {
					history = cand
					improved = true
					mi--
				}
			}
		}
	}
	return history
}

// equivHistory generates a seeded mutation history against a probe
// universe, so each round's batch targets the record population as it
// stands after the previous rounds.
func equivHistory(t *testing.T, seed int64, n, rounds, batchSize int) [][]workload.Mutation {
	t.Helper()
	probe, err := buildEquivUniverse(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	var history [][]workload.Mutation
	for r := 0; r < rounds; r++ {
		batch := workload.RandomBatch(probe.contribs, seed*1000+int64(r), batchSize)
		if err := workload.Apply(probe.contribs, batch); err != nil {
			t.Fatal(err)
		}
		history = append(history, batch)
	}
	return history
}

// requireEquivalence fails the test with a shrunk counterexample when the
// history diverges.
func requireEquivalence(t *testing.T, seed int64, n int, history [][]workload.Mutation, fault *equivFault) {
	t.Helper()
	divergence, err := checkEquivalence(seed, n, history, fault)
	if err != nil {
		t.Fatal(err)
	}
	if divergence == "" {
		return
	}
	shrunk := shrinkHistory(seed, n, history, fault)
	var trace bytes.Buffer
	for ri, batch := range shrunk {
		for _, m := range batch {
			fmt.Fprintf(&trace, "  round %d: %s\n", ri, m)
		}
	}
	d, _ := checkEquivalence(seed, n, shrunk, fault)
	t.Fatalf("delta refresh diverged from full recompute.\nMinimal history:\n%s\n%s", trace.String(), d)
}

// TestDeltaEquivalence is the randomized delta ≡ full-recompute property
// test over the reference and cohort studies.
func TestDeltaEquivalence(t *testing.T) {
	const seed, n = 7, 40
	requireEquivalence(t, seed, n, equivHistory(t, seed, n, 4, 12), nil)
}

// TestDeltaEquivalenceUnderFaults is the same property over the same
// seeded history with each injectable fault active in both universes.
func TestDeltaEquivalenceUnderFaults(t *testing.T) {
	const seed, n = 7, 40
	history := equivHistory(t, seed, n, 4, 12)
	for i := range equivFaults {
		fault := &equivFaults[i]
		t.Run(fault.name, func(t *testing.T) { requireEquivalence(t, seed, n, history, fault) })
	}
}
