package patterns

import (
	"context"
	"fmt"
	"sort"

	"guava/internal/relstore"
)

// Merge is the Table 1 pattern where "data from several forms are drawn from
// the same table": one wide physical table holds the rows of every form,
// discriminated by a column holding the form name. Reading a form's data
// means "pull only data where C = form name" and projecting its columns.
type Merge struct {
	// Table names the shared physical table.
	Table string
	// Discriminator names the column that holds the form name.
	Discriminator string
	// Forms are all the forms that share the table; the union of their
	// naive schemas (minus keys, which share one column) defines the
	// physical schema. Columns with the same name must agree on type.
	Forms []FormInfo

	shared *relstore.Schema
}

// NewMergeStack builds a complete stack whose layout is a Merge shared by
// the given forms, with the transforms layered above it. The Merge layout
// must be constructed from the forms *as the layout will see them* — i.e.
// after every transform's Adapt (an Audit transform, for example, adds its
// deprecation column to each form) — and this constructor does that
// adaptation, which is easy to forget when assembling the pieces by hand.
func NewMergeStack(table, discriminator string, transforms []Transform, forms ...FormInfo) (*Stack, error) {
	adapted := make([]FormInfo, len(forms))
	for i, f := range forms {
		cur := f
		for _, t := range transforms {
			next, err := t.Adapt(cur)
			if err != nil {
				return nil, fmt.Errorf("patterns: merge stack: %s: %w", t.Name(), err)
			}
			cur = next
		}
		adapted[i] = cur
	}
	m, err := NewMerge(table, discriminator, adapted)
	if err != nil {
		return nil, err
	}
	return NewStack(m, transforms...), nil
}

// NewMerge builds a Merge layout for a set of forms, validating that
// same-named columns agree on type and that all forms share a key column
// name.
func NewMerge(table, discriminator string, forms []FormInfo) (*Merge, error) {
	if len(forms) == 0 {
		return nil, fmt.Errorf("patterns: merge needs at least one form")
	}
	key := forms[0].KeyColumn
	cols := []relstore.Column{
		{Name: discriminator, Type: relstore.KindString, NotNull: true},
		{Name: key, Type: relstore.KindInt, NotNull: true},
	}
	seen := map[string]relstore.Kind{discriminator: relstore.KindString, key: relstore.KindInt}
	for _, f := range forms {
		if f.KeyColumn != key {
			return nil, fmt.Errorf("patterns: merge: key column %q of %s differs from %q", f.KeyColumn, f.Name, key)
		}
		for _, c := range f.Schema.Columns {
			if c.Name == f.KeyColumn {
				continue
			}
			if k, ok := seen[c.Name]; ok {
				if k != c.Type {
					return nil, fmt.Errorf("patterns: merge: column %q has conflicting types %s and %s", c.Name, k, c.Type)
				}
				continue
			}
			seen[c.Name] = c.Type
			// All merged columns are nullable: other forms have no value.
			cols = append(cols, relstore.Column{Name: c.Name, Type: c.Type})
		}
	}
	shared, err := relstore.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("patterns: merge: %w", err)
	}
	return &Merge{Table: table, Discriminator: discriminator, Forms: forms, shared: shared}, nil
}

// Name implements Layout.
func (*Merge) Name() string { return "Merge" }

// Describe implements Layout.
func (*Merge) Describe() string {
	return "Data from several forms are drawn from the same table; pull only data where the discriminator column equals the form name."
}

func (m *Merge) knows(form FormInfo) error {
	for _, f := range m.Forms {
		if f.Name == form.Name {
			return nil
		}
	}
	names := make([]string, len(m.Forms))
	for i, f := range m.Forms {
		names[i] = f.Name
	}
	sort.Strings(names)
	return fmt.Errorf("patterns: merge table %s does not include form %q (has %v)", m.Table, form.Name, names)
}

// Install implements Layout.
func (m *Merge) Install(db *relstore.DB, form FormInfo) error {
	if err := m.knows(form); err != nil {
		return err
	}
	_, err := db.EnsureTable(m.Table, m.shared)
	return err
}

// Write implements Layout.
func (m *Merge) Write(db *relstore.DB, form FormInfo, row relstore.Row) error {
	if err := m.knows(form); err != nil {
		return err
	}
	t, err := db.Table(m.Table)
	if err != nil {
		return err
	}
	wide := make(relstore.Row, m.shared.Arity())
	wide[0] = relstore.Str(form.Name)
	for i, c := range form.Schema.Columns {
		j := m.shared.Index(c.Name)
		if j < 0 {
			return fmt.Errorf("patterns: merge write: column %q not in shared table", c.Name)
		}
		wide[j] = row[i]
	}
	return t.Insert(wide)
}

// Read implements Layout: where conjoins with the discriminator filter in
// one scan of the shared table, so the read is exact.
func (m *Merge) Read(_ context.Context, db *relstore.DB, form FormInfo, where relstore.Pred, _ func(SourceMiss)) (*relstore.Rows, bool, error) {
	if err := m.knows(form); err != nil {
		return nil, false, err
	}
	t, err := db.Table(m.Table)
	if err != nil {
		return nil, false, err
	}
	mine, err := t.Select(relstore.And(relstore.Eq(m.Discriminator, relstore.Str(form.Name)), where))
	if err != nil {
		return nil, false, err
	}
	rows, err := relstore.Project(mine, form.Schema.Names()...)
	if err != nil {
		return nil, false, err
	}
	return rows, true, nil
}

// Update implements Layout.
func (m *Merge) Update(db *relstore.DB, form FormInfo, key relstore.Value, col string, v relstore.Value) (int, error) {
	if err := m.knows(form); err != nil {
		return 0, err
	}
	t, err := db.Table(m.Table)
	if err != nil {
		return 0, err
	}
	i := m.shared.Index(col)
	if i < 0 {
		return 0, fmt.Errorf("patterns: merge update: no column %q", col)
	}
	pred := relstore.And(
		relstore.Eq(m.Discriminator, relstore.Str(form.Name)),
		relstore.Eq(form.KeyColumn, key),
	)
	return t.Update(pred, func(r relstore.Row) relstore.Row {
		r[i] = v
		return r
	})
}

// PhysicalTables implements Layout.
func (m *Merge) PhysicalTables(FormInfo) []string { return []string{m.Table} }
