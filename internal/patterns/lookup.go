package patterns

import (
	"fmt"
	"sort"

	"guava/internal/relstore"
)

// Lookup is the pattern where categorical answers are stored as integer
// codes with a dimension table mapping codes to labels — the classic
// star-schema trick vendor tools use for drop-down answers. Each configured
// string column C of a form gets a side table "<form>_<C>_lookup(Code,
// Label)"; the fact table stores the code.
type Lookup struct {
	// Columns names the string columns stored as codes.
	Columns []string
}

// Name implements Transform.
func (*Lookup) Name() string { return "Lookup" }

// Describe implements Transform.
func (*Lookup) Describe() string {
	return "Categorical answers are stored as integer codes resolved through per-column lookup tables."
}

func lookupTable(form FormInfo, col string) string {
	return fmt.Sprintf("%s_%s_lookup", form.Name, col)
}

var lookupSchema = relstore.MustSchema(
	relstore.Column{Name: "Code", Type: relstore.KindInt, NotNull: true},
	relstore.Column{Name: "Label", Type: relstore.KindString, NotNull: true},
)

func (l *Lookup) applies(form FormInfo) (map[string]bool, error) {
	m := make(map[string]bool, len(l.Columns))
	for _, col := range l.Columns {
		c, err := form.Schema.Col(col)
		if err != nil {
			return nil, fmt.Errorf("lookup: %w", err)
		}
		if c.Type != relstore.KindString {
			return nil, fmt.Errorf("lookup: column %q is %s, only TEXT columns can be coded", col, c.Type)
		}
		if col == form.KeyColumn {
			return nil, fmt.Errorf("lookup: key column cannot be coded")
		}
		m[col] = true
	}
	return m, nil
}

// Adapt implements Transform: coded columns become integers.
func (l *Lookup) Adapt(form FormInfo) (FormInfo, error) {
	coded, err := l.applies(form)
	if err != nil {
		return FormInfo{}, err
	}
	cols := make([]relstore.Column, form.Schema.Arity())
	for i, c := range form.Schema.Columns {
		if coded[c.Name] {
			c.Type = relstore.KindInt
		}
		cols[i] = c
	}
	schema, err := relstore.NewSchema(cols...)
	if err != nil {
		return FormInfo{}, err
	}
	return FormInfo{Name: form.Name, KeyColumn: form.KeyColumn, Schema: schema}, nil
}

// SideTables lists the dimension tables, for Stack.PhysicalTables.
func (l *Lookup) SideTables(form FormInfo) []string {
	out := make([]string, len(l.Columns))
	for i, col := range l.Columns {
		out[i] = lookupTable(form, col)
	}
	sort.Strings(out)
	return out
}

// Install implements Transform: create the dimension tables.
func (l *Lookup) Install(db *relstore.DB, outer, _ FormInfo) error {
	if _, err := l.applies(outer); err != nil {
		return err
	}
	for _, col := range l.Columns {
		if _, err := db.EnsureTable(lookupTable(outer, col), lookupSchema); err != nil {
			return err
		}
	}
	return nil
}

// codeFor returns the code for a label, allocating a new one when absent.
func (l *Lookup) codeFor(db *relstore.DB, outer FormInfo, col, label string) (int64, error) {
	t, err := db.Table(lookupTable(outer, col))
	if err != nil {
		return 0, err
	}
	rows, err := t.Lookup("Label", relstore.Str(label))
	if err != nil {
		return 0, err
	}
	if len(rows) > 0 {
		return rows[0][0].AsInt(), nil
	}
	code := int64(t.Len() + 1)
	if err := t.Insert(relstore.Row{relstore.Int(code), relstore.Str(label)}); err != nil {
		return 0, err
	}
	return code, nil
}

// Encode implements Transform.
func (l *Lookup) Encode(db *relstore.DB, outer, _ FormInfo, row relstore.Row) (relstore.Row, error) {
	coded, err := l.applies(outer)
	if err != nil {
		return nil, err
	}
	out := make(relstore.Row, len(row))
	for i, v := range row {
		name := outer.Schema.Columns[i].Name
		if !coded[name] || v.IsNull() {
			out[i] = v
			continue
		}
		code, err := l.codeFor(db, outer, name, v.AsString())
		if err != nil {
			return nil, err
		}
		out[i] = relstore.Int(code)
	}
	return out, nil
}

// Decode implements Transform: each record becomes one row in the inner
// schema's column order, its coded cells resolved through a code→label map
// of their dimension table, read once per call.
func (l *Lookup) Decode(db *relstore.DB, outer, inner FormInfo, rows *relstore.Rows) (*relstore.Rows, error) {
	coded, err := l.applies(outer)
	if err != nil {
		return nil, err
	}
	labels := make([]map[int64]string, outer.Schema.Arity()) // nil for an uncoded column
	for i, c := range outer.Schema.Columns {
		if coded[c.Name] {
			if labels[i], err = l.labels(db, outer, c.Name); err != nil {
				return nil, err
			}
		}
	}
	return mapCells(rows, inner.Schema.Names(), outer.Schema, func(i int, v relstore.Value) (relstore.Value, error) {
		if labels[i] == nil || v.IsNull() {
			return v, nil
		}
		label, ok := labels[i][v.AsInt()]
		if !ok {
			return v, fmt.Errorf("lookup: dangling code %d in %s", v.AsInt(), lookupTable(outer, outer.Schema.Columns[i].Name))
		}
		return relstore.Str(label), nil
	})
}

// labels reads one dimension table into a code→label map; a code stored
// twice keeps its first label in storage order.
func (l *Lookup) labels(db *relstore.DB, outer FormInfo, col string) (map[int64]string, error) {
	t, err := db.Table(lookupTable(outer, col))
	if err != nil {
		return nil, err
	}
	m := make(map[int64]string, t.Len())
	t.Scan(func(r relstore.Row) bool {
		if _, dup := m[r[0].AsInt()]; !dup {
			m[r[0].AsInt()] = r[1].AsString()
		}
		return true
	})
	return m, nil
}

// AdaptUpdate implements Transform.
func (l *Lookup) AdaptUpdate(db *relstore.DB, outer, _ FormInfo, col string, v relstore.Value) (string, relstore.Value, error) {
	coded, err := l.applies(outer)
	if err != nil {
		return "", relstore.Null(), err
	}
	if !coded[col] || v.IsNull() {
		return col, v, nil
	}
	code, err := l.codeFor(db, outer, col, v.AsString())
	if err != nil {
		return "", relstore.Null(), err
	}
	return col, relstore.Int(code), nil
}
