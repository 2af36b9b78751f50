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

// DivertingReader is the optional lossy-source protocol behind
// Stack.ReadDiverting: a Layout whose source records can individually fail
// reconstruction separates the clean relation from per-record misses
// instead of failing the whole read on the first bad record. keys is nil
// for the whole relation; otherwise it is a non-empty set of distinct,
// non-NULL instance keys and only those records are read.
type DivertingReader interface {
	ReadDiverting(ctx context.Context, db *relstore.DB, form FormInfo, keys []relstore.Value) (*relstore.Rows, []SourceMiss, error)
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

// ReadDiverting is the stack's one read: it reconstructs the naive
// relation, conformed exactly to the form's naive schema, and returns the
// source records the layout could not reconstruct as misses alongside the
// clean rows. Layouts without the DivertingReader protocol report no
// misses; their first error fails the read.
//
// keys scopes the read. nil reads the whole relation. Otherwise only the
// records with those instance keys come back: duplicate and NULL keys are
// dropped, so the result is a function of the key set, and an empty set
// reads nothing without touching the layout. Keyed layouts probe their key
// indexes; other layouts fall back to a full read filtered by key
// membership. The scoped read leans on one contract: every transform
// preserves the key column's values (true of all Table 1 transforms — they
// rename or re-encode non-key answers, never instance keys), so filtering
// at the layout level selects exactly the outer-level records. Records
// deprecated through Audit decode to nothing, yielding an empty group for
// their key.
func (s *Stack) ReadDiverting(ctx context.Context, db *relstore.DB, form FormInfo, keys []relstore.Value) (*relstore.Rows, []SourceMiss, error) {
	if keys != nil {
		if keys = distinctKeys(keys); len(keys) == 0 {
			return &relstore.Rows{Schema: form.Schema}, nil, nil
		}
	}
	infos, err := s.adaptAll(form)
	if err != nil {
		return nil, nil, err
	}
	inner := infos[len(infos)-1]
	var rows *relstore.Rows
	var misses []SourceMiss
	if dr, ok := s.Layout.(DivertingReader); ok {
		rows, misses, err = dr.ReadDiverting(ctx, db, inner, keys)
	} else if kr, ok := s.Layout.(KeyedReader); ok && keys != nil {
		rows, err = kr.ReadKeys(db, inner, keys)
	} else {
		rows, err = s.Layout.Read(db, inner)
		if err == nil && keys != nil {
			rows, err = relstore.Select(rows, relstore.In(relstore.Col(inner.KeyColumn), keys...))
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("patterns: read %s: %w", s.Layout.Name(), err)
	}
	for i := len(s.Transforms) - 1; i >= 0; i-- {
		rows, err = s.Transforms[i].Decode(db, infos[i], infos[i+1], rows)
		if err != nil {
			return nil, nil, fmt.Errorf("patterns: decode %s: %w", s.Transforms[i].Name(), err)
		}
	}
	rows, err = Conform(rows, form.Schema)
	if err != nil {
		return nil, nil, err
	}
	return rows, misses, nil
}

// distinctKeys drops NULL and repeated keys, keeping first occurrences in
// order.
func distinctKeys(keys []relstore.Value) []relstore.Value {
	out := make([]relstore.Value, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if k.IsNull() || seen[k.Key()] {
			continue
		}
		seen[k.Key()] = true
		out = append(out, k)
	}
	return out
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
