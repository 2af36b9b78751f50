package patterns

import (
	"context"
	"fmt"

	"guava/internal/relstore"
)

// SourceMiss is one source record a layout could not reconstruct into a
// naive-schema row: the seam between lossy source modalities (free-text
// reports, damaged archives) and the ETL quarantine. The layout reports
// the miss instead of failing its whole Read, and the caller decides —
// typically by dead-lettering it under the run's quarantine budget.
type SourceMiss struct {
	// Key is the instance key of the affected record, when recoverable
	// (NULL otherwise).
	Key relstore.Value
	// Rule identifies the matcher or constraint that failed, e.g.
	// "NoteReport/HISTORY/SmokeStatus".
	Rule string
	// Err is the underlying extraction error.
	Err error
	// SourceKind classifies the provenance locator: "report-span" for
	// text extraction, "db-row" for relational sources.
	SourceKind string
	// Locator pins the miss inside its source, e.g.
	// "report 17 bytes 120-168".
	Locator string
}

// MissError reports misses as one error naming the first, or nil when
// there are none: what a strict read fails with.
func MissError(misses []SourceMiss) error {
	if len(misses) == 0 {
		return nil
	}
	m := misses[0]
	return fmt.Errorf("%d source miss(es), first: %s (%w)", len(misses), m.Locator, m.Err)
}

// ReadDiverting reconstructs the naive relation, conformed exactly to the
// form's naive schema, and returns the source records the layout could not
// reconstruct as misses alongside the clean rows.
//
// keys scopes the read. nil reads the whole relation. Otherwise the read is
// the predicate key IN (keys) without its NULL keys: only the records with
// those instance keys come back, a duplicate key never duplicates a row,
// and an empty set reads nothing without touching the layout. The scope is
// rewritten inward like any predicate — every transform preserves the key
// column's values (Rename renames the column, Audit conjoins its liveness
// filter, the others pass a key IN through) — so every layout fetches only
// those keys, probing its key indexes. Records deprecated through Audit
// decode to nothing, yielding an empty group for their key.
func (s *Stack) ReadDiverting(ctx context.Context, db *relstore.DB, form FormInfo, keys []relstore.Value) (*relstore.Rows, []SourceMiss, error) {
	var where relstore.Pred
	if keys != nil {
		live := make([]relstore.Value, 0, len(keys))
		for _, k := range keys {
			if !k.IsNull() {
				live = append(live, k)
			}
		}
		if len(live) == 0 {
			return &relstore.Rows{Schema: form.Schema}, nil, nil
		}
		where = relstore.In(relstore.Col(form.KeyColumn), live...)
	}
	rows, misses, _, err := s.readThrough(ctx, db, form, where)
	return rows, misses, err
}

// readThrough is the stack's one read pipeline, behind Read, ReadKeys,
// ReadDiverting and the queries. where (nil: every record) is rewritten
// inward through the transforms — when one declines, the layout reads
// unfiltered — and the layout's rows decode outward, conform to the naive
// schema and are filtered by where again, so the result is exact whatever
// the layers evaluated. The layout's misses are collected. The bool reports
// that where was pushed down to the physical scan: every transform
// rewrote it and the layout read it exactly.
func (s *Stack) readThrough(ctx context.Context, db *relstore.DB, form FormInfo, where relstore.Pred) (*relstore.Rows, []SourceMiss, bool, error) {
	infos, err := s.adaptAll(form)
	if err != nil {
		return nil, nil, false, err
	}
	var inner relstore.Pred
	rewritten := false
	if where != nil {
		inner, rewritten = s.rewriteInward(db, infos, where)
	}
	var misses []SourceMiss
	rows, exact, err := s.Layout.Read(ctx, db, infos[len(infos)-1], inner, func(m SourceMiss) { misses = append(misses, m) })
	if err != nil {
		return nil, nil, false, fmt.Errorf("patterns: read %s: %w", s.Layout.Name(), err)
	}
	for i := len(s.Transforms) - 1; i >= 0; i-- {
		rows, err = s.Transforms[i].Decode(db, infos[i], infos[i+1], rows)
		if err != nil {
			return nil, nil, false, fmt.Errorf("patterns: decode %s: %w", s.Transforms[i].Name(), err)
		}
	}
	rows, err = Conform(rows, form.Schema)
	if err != nil {
		return nil, nil, false, err
	}
	if where != nil {
		rows, err = relstore.Select(rows, where)
		if err != nil {
			return nil, nil, false, err
		}
	}
	return rows, misses, rewritten && exact, nil
}

// KeyConjuncts is what a layout that fetches its physical tables by key can
// evaluate of where at the scan: the conjunction of where's top-level
// conjuncts that reference the form's key column and no other (nil when
// there are none), and whether those are all of where — whether a read
// that fetches with it is exact.
func KeyConjuncts(form FormInfo, where relstore.Pred) (relstore.Pred, bool) {
	if where == nil {
		return nil, true
	}
	all := []relstore.Pred{where}
	if and, ok := where.(relstore.AndPred); ok {
		all = and.Ps
	}
	var keyed []relstore.Pred
	for _, c := range all {
		if cols := relstore.PredColumns(c); len(cols) == 1 && cols[0] == form.KeyColumn {
			keyed = append(keyed, c)
		}
	}
	if len(keyed) == 0 {
		return nil, len(all) == 0
	}
	return relstore.And(keyed...), len(keyed) == len(all)
}

// selectFrom fetches the rows of the named table that pred selects (nil:
// every row), the physical scan behind every layout's Read.
func selectFrom(db *relstore.DB, table string, pred relstore.Pred) (*relstore.Rows, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	return t.Select(pred)
}

// strict turns a diverting read's first miss into the read's error.
func strict(rows *relstore.Rows, misses []SourceMiss, err error) (*relstore.Rows, error) {
	if err == nil {
		err = MissError(misses)
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}
