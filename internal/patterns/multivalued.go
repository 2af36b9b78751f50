package patterns

import (
	"context"
	"fmt"

	"guava/internal/relstore"
)

// MultiValued is the multi-valued answer-table pattern from the paper's
// extended catalog: designated answers move out of the main record into one
// side table per question, holding one row per answer, so the tool can store
// several answers where the form shows a single control. The naive relation
// only exists when each instance carries at most one answer per question —
// a second answer makes the record ambiguous, which is exactly the hazard
// this pattern imports and the reason Read refuses instead of picking one.
//
// Physical tables per form:
//
//	<form>_main(<key>, …unmoved columns…)
//	<form>_<col>_answers(<key>, <col>)      — one per designated column
//
// The misuse hazard (vetted as GV314): designating the key column, a column
// the form does not have, or the same column twice.
type MultiValued struct {
	// Columns names the controls whose answers move to side tables.
	Columns []string
}

// Name implements Layout.
func (MultiValued) Name() string { return "MultiValued" }

// Describe implements Layout.
func (MultiValued) Describe() string {
	return "Designated answers move to one side table per question, one row per answer; reading requires at most one answer per instance."
}

func mainTable(form FormInfo) string { return form.Name + "_main" }

func answerTable(form FormInfo, col string) string { return form.Name + "_" + col + "_answers" }

// Check validates the designated-column set without a database. Install
// runs it before touching storage; guavavet calls it to report misuse as
// GV314.
func (m MultiValued) Check(form FormInfo) error { return m.check(form) }

// check validates the designated-column set against the form.
func (m MultiValued) check(form FormInfo) error {
	if len(m.Columns) == 0 {
		return fmt.Errorf("patterns: multi-valued: no columns designated")
	}
	seen := make(map[string]bool, len(m.Columns))
	for _, c := range m.Columns {
		if c == form.KeyColumn {
			return fmt.Errorf("patterns: multi-valued: key column %s cannot be multi-valued", c)
		}
		if !form.Schema.Has(c) {
			return fmt.Errorf("patterns: multi-valued: form %s has no column %q", form.Name, c)
		}
		if seen[c] {
			return fmt.Errorf("patterns: multi-valued: column %q designated twice", c)
		}
		seen[c] = true
	}
	return nil
}

func (m MultiValued) moved(col string) bool {
	for _, c := range m.Columns {
		if c == col {
			return true
		}
	}
	return false
}

func (m MultiValued) mainSchema(form FormInfo) *relstore.Schema {
	cols := make([]relstore.Column, 0, form.Schema.Arity())
	for _, c := range form.Schema.Columns {
		if !m.moved(c.Name) {
			cols = append(cols, c)
		}
	}
	return relstore.MustSchema(cols...)
}

func (m MultiValued) answerSchema(form FormInfo, col string) *relstore.Schema {
	ki := form.Schema.Index(form.KeyColumn)
	ci := form.Schema.Index(col)
	return relstore.MustSchema(
		form.Schema.Columns[ki],
		relstore.Column{Name: col, Type: form.Schema.Columns[ci].Type, NotNull: true},
	)
}

// Install implements Layout.
func (m MultiValued) Install(db *relstore.DB, form FormInfo) error {
	if err := m.check(form); err != nil {
		return err
	}
	mt, err := db.EnsureTable(mainTable(form), m.mainSchema(form))
	if err != nil {
		return err
	}
	if err := mt.CreateIndex(form.KeyColumn); err != nil {
		return err
	}
	for _, c := range m.Columns {
		at, err := db.EnsureTable(answerTable(form, c), m.answerSchema(form, c))
		if err != nil {
			return err
		}
		if err := at.CreateIndex(form.KeyColumn); err != nil {
			return err
		}
	}
	return nil
}

// Write implements Layout.
func (m MultiValued) Write(db *relstore.DB, form FormInfo, row relstore.Row) error {
	if err := m.check(form); err != nil {
		return err
	}
	mt, err := db.Table(mainTable(form))
	if err != nil {
		return err
	}
	ki := form.Schema.Index(form.KeyColumn)
	var mainRow relstore.Row
	for i, c := range form.Schema.Columns {
		if !m.moved(c.Name) {
			mainRow = append(mainRow, row[i])
		}
	}
	if err := mt.Insert(mainRow); err != nil {
		return err
	}
	for _, c := range m.Columns {
		v := row[form.Schema.Index(c)]
		if v.IsNull() {
			continue
		}
		at, err := db.Table(answerTable(form, c))
		if err != nil {
			return err
		}
		if err := at.Insert(relstore.Row{row[ki], v}); err != nil {
			return err
		}
	}
	return nil
}

// assemble joins per-question answers back onto the main records, refusing
// when any instance carries more than one answer for a question.
func (m MultiValued) assemble(form FormInfo, main *relstore.Rows, answers map[string]*relstore.Rows) (*relstore.Rows, error) {
	cols := append([]relstore.Column{}, main.Schema.Columns...)
	for _, c := range m.Columns {
		ci := form.Schema.Index(c)
		cols = append(cols, relstore.Column{Name: c, Type: form.Schema.Columns[ci].Type})
	}
	byKey := make(map[string]map[string]relstore.Value)
	for _, c := range m.Columns {
		for _, ar := range answers[c].Data {
			k := ar[0].Key()
			if byKey[k] == nil {
				byKey[k] = make(map[string]relstore.Value)
			}
			if _, dup := byKey[k][c]; dup {
				return nil, fmt.Errorf("patterns: multi-valued: ambiguous record: %s=%s has multiple %s answers",
					form.KeyColumn, ar[0].Display(), c)
			}
			byKey[k][c] = ar[1]
		}
	}
	ki := main.Schema.Index(form.KeyColumn)
	out := &relstore.Rows{Schema: relstore.MustSchema(cols...), Data: make([]relstore.Row, len(main.Data))}
	for r, row := range main.Data {
		nr := append(append(relstore.Row{}, row...), make(relstore.Row, len(m.Columns))...)
		for i, c := range m.Columns {
			v, ok := byKey[row[ki].Key()][c]
			if !ok {
				v = relstore.Null()
			}
			nr[len(row)+i] = v
		}
		out.Data[r] = nr
	}
	return out, nil
}

// Read implements Layout: the main table and every answer table are fetched
// with the key conjuncts of where (index probes), so the read is exact when
// where is a key predicate, and an ambiguous record fails only the reads
// that fetch it.
func (m MultiValued) Read(_ context.Context, db *relstore.DB, form FormInfo, where relstore.Pred, _ func(SourceMiss)) (*relstore.Rows, bool, error) {
	if err := m.check(form); err != nil {
		return nil, false, err
	}
	mt, err := db.Table(mainTable(form))
	if err != nil {
		return nil, false, err
	}
	keyed, exact := KeyConjuncts(form, where)
	main, err := mt.Select(keyed)
	if err != nil {
		return nil, false, err
	}
	answers := make(map[string]*relstore.Rows, len(m.Columns))
	for _, c := range m.Columns {
		at, err := db.Table(answerTable(form, c))
		if err != nil {
			return nil, false, err
		}
		if answers[c], err = at.Select(keyed); err != nil {
			return nil, false, err
		}
	}
	rows, err := m.assemble(form, main, answers)
	if err != nil {
		return nil, false, err
	}
	return rows, exact, nil
}

// Update implements Layout: moved columns rewrite their answer row (insert
// or delete as the value is non-NULL or NULL); unmoved columns update the
// main record in place.
func (m MultiValued) Update(db *relstore.DB, form FormInfo, key relstore.Value, col string, v relstore.Value) (int, error) {
	if err := m.check(form); err != nil {
		return 0, err
	}
	if col == form.KeyColumn {
		return 0, fmt.Errorf("patterns: multi-valued update: cannot update key column")
	}
	if !form.Schema.Has(col) {
		return 0, fmt.Errorf("patterns: multi-valued update: no column %q", col)
	}
	mt, err := db.Table(mainTable(form))
	if err != nil {
		return 0, err
	}
	if !m.moved(col) {
		i := mt.Schema().Index(col)
		return mt.Update(relstore.Eq(form.KeyColumn, key), func(r relstore.Row) relstore.Row {
			r[i] = v
			return r
		})
	}
	exists, err := mt.Lookup(form.KeyColumn, key)
	if err != nil {
		return 0, err
	}
	if len(exists) == 0 {
		return 0, nil
	}
	at, err := db.Table(answerTable(form, col))
	if err != nil {
		return 0, err
	}
	if _, err := at.Delete(relstore.Eq(form.KeyColumn, key)); err != nil {
		return 0, err
	}
	if !v.IsNull() {
		if err := at.Insert(relstore.Row{key, v}); err != nil {
			return 0, err
		}
	}
	return len(exists), nil
}

// PhysicalTables implements Layout.
func (m MultiValued) PhysicalTables(form FormInfo) []string {
	out := []string{mainTable(form)}
	for _, c := range m.Columns {
		out = append(out, answerTable(form, c))
	}
	return out
}
