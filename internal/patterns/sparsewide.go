package patterns

import (
	"context"
	"fmt"

	"guava/internal/relstore"
)

// SparseWide is the sparse wide-table pattern from the paper's extended
// catalog: the reporting tool pre-allocates one physical table with a fixed
// bank of generic, nullable text slots (attr_01 … attr_NN) and maps each
// form control onto a slot by declaration order. Most slots stay NULL for
// most rows — the "sparse" in the name — and the mapping from slot to
// question lives only in the tool's configuration, which is why the g-tree
// has to carry it.
//
// Physical table per form:
//
//	<form>_wide(<key>, attr_01, …, attr_NN)
//
// The misuse hazard (vetted as GV313): a form with more data controls than
// the table has slots silently truncates — here Install refuses instead.
type SparseWide struct {
	// Slots is the number of pre-allocated generic columns.
	Slots int
}

// Name implements Layout.
func (SparseWide) Name() string { return "SparseWide" }

// Describe implements Layout.
func (SparseWide) Describe() string {
	return "A fixed bank of generic nullable slot columns; each control maps to one slot by declaration order, most slots NULL."
}

func wideTable(form FormInfo) string { return form.Name + "_wide" }

func slotName(i int) string { return fmt.Sprintf("attr_%02d", i+1) }

// dataColumns returns the non-key columns in declaration order.
func dataColumns(form FormInfo) []relstore.Column {
	out := make([]relstore.Column, 0, form.Schema.Arity()-1)
	for _, c := range form.Schema.Columns {
		if c.Name != form.KeyColumn {
			out = append(out, c)
		}
	}
	return out
}

func (w SparseWide) wideSchema(form FormInfo) *relstore.Schema {
	ki := form.Schema.Index(form.KeyColumn)
	cols := make([]relstore.Column, 0, w.Slots+1)
	cols = append(cols, form.Schema.Columns[ki])
	for i := 0; i < w.Slots; i++ {
		cols = append(cols, relstore.Column{Name: slotName(i), Type: relstore.KindString})
	}
	return relstore.MustSchema(cols...)
}

// Check validates the slot mapping without a database: every data control
// needs a slot. Install runs it before touching storage; guavavet calls it
// to report misuse as GV313.
func (w SparseWide) Check(form FormInfo) error { return w.check(form) }

// check validates the slot mapping: every data control needs a slot.
func (w SparseWide) check(form FormInfo) error {
	if w.Slots <= 0 {
		return fmt.Errorf("patterns: sparse-wide: slot count %d must be positive", w.Slots)
	}
	if n := len(dataColumns(form)); n > w.Slots {
		return fmt.Errorf("patterns: sparse-wide: form %s has %d data controls but only %d slots", form.Name, n, w.Slots)
	}
	return nil
}

// Install implements Layout.
func (w SparseWide) Install(db *relstore.DB, form FormInfo) error {
	if err := w.check(form); err != nil {
		return err
	}
	t, err := db.EnsureTable(wideTable(form), w.wideSchema(form))
	if err != nil {
		return err
	}
	return t.CreateIndex(form.KeyColumn)
}

// Write implements Layout.
func (w SparseWide) Write(db *relstore.DB, form FormInfo, row relstore.Row) error {
	if err := w.check(form); err != nil {
		return err
	}
	t, err := db.Table(wideTable(form))
	if err != nil {
		return err
	}
	ki := form.Schema.Index(form.KeyColumn)
	out := make(relstore.Row, w.Slots+1)
	out[0] = row[ki]
	for i := range out[1:] {
		out[i+1] = relstore.Null()
	}
	slot := 0
	for i := range form.Schema.Columns {
		if i == ki {
			continue
		}
		if !row[i].IsNull() {
			out[slot+1] = relstore.Str(row[i].Display())
		}
		slot++
	}
	return t.Insert(out)
}

// decode maps physical slot rows back to the naive schema, coercing each
// slot's text back to the declared control type.
func (w SparseWide) decode(form FormInfo, phys *relstore.Rows) (*relstore.Rows, error) {
	if err := w.check(form); err != nil {
		return nil, err
	}
	data := dataColumns(form)
	ki := form.Schema.Index(form.KeyColumn)
	cols := append([]relstore.Column{form.Schema.Columns[ki]}, data...)
	out := &relstore.Rows{Schema: relstore.MustSchema(cols...), Data: make([]relstore.Row, len(phys.Data))}
	for r, row := range phys.Data {
		nr := make(relstore.Row, len(cols))
		nr[0] = row[0]
		for i, c := range data {
			v := row[i+1]
			if !v.IsNull() {
				cv, err := relstore.Coerce(v, c.Type)
				if err != nil {
					return nil, fmt.Errorf("patterns: sparse-wide: slot %s as %s: %w", slotName(i), c.Name, err)
				}
				v = cv
			}
			nr[i+1] = v
		}
		out.Data[r] = nr
	}
	return out, nil
}

// Read implements Layout: the wide table is fetched with the key conjuncts
// of where (an index probe), so the read is exact when where is a key
// predicate.
func (w SparseWide) Read(_ context.Context, db *relstore.DB, form FormInfo, where relstore.Pred, _ func(SourceMiss)) (*relstore.Rows, bool, error) {
	t, err := db.Table(wideTable(form))
	if err != nil {
		return nil, false, err
	}
	keyed, exact := KeyConjuncts(form, where)
	phys, err := t.Select(keyed)
	if err != nil {
		return nil, false, err
	}
	rows, err := w.decode(form, phys)
	if err != nil {
		return nil, false, err
	}
	return rows, exact, nil
}

// Update implements Layout.
func (w SparseWide) Update(db *relstore.DB, form FormInfo, key relstore.Value, col string, v relstore.Value) (int, error) {
	if err := w.check(form); err != nil {
		return 0, err
	}
	if col == form.KeyColumn {
		return 0, fmt.Errorf("patterns: sparse-wide update: cannot update key column")
	}
	slot := -1
	for i, c := range dataColumns(form) {
		if c.Name == col {
			slot = i
			break
		}
	}
	if slot < 0 {
		return 0, fmt.Errorf("patterns: sparse-wide update: no column %q", col)
	}
	t, err := db.Table(wideTable(form))
	if err != nil {
		return 0, err
	}
	nv := relstore.Null()
	if !v.IsNull() {
		nv = relstore.Str(v.Display())
	}
	return t.Update(relstore.Eq(form.KeyColumn, key), func(r relstore.Row) relstore.Row {
		r[slot+1] = nv
		return r
	})
}

// PhysicalTables implements Layout.
func (SparseWide) PhysicalTables(form FormInfo) []string { return []string{wideTable(form)} }
