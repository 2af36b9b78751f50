package patterns

import (
	"context"
	"fmt"

	"guava/internal/relstore"
)

// Generic is the Table 1 pattern the paper calls "the most frequent type of
// schematic heterogeneity": a generic Entity-Attribute-Value layout where
// "each row in the database looks like Entity, Attribute, Value" and "each
// row in a table represents an attribute, rather than each column". Reading
// "executes an un-pivot operation, either in code or SQL if the operator
// exists in the DBMS" — relstore provides the operator natively.
//
// Physical tables per form:
//
//	<form>_entities(<key>)                  — anchor row per form instance
//	<form>_eav(<key>, Attribute, Value)     — one row per non-NULL answer
type Generic struct{}

// Name implements Layout.
func (Generic) Name() string { return "Generic" }

// Describe implements Layout.
func (Generic) Describe() string {
	return "Each row in a table represents an attribute rather than each column; reading executes an un-pivot operation."
}

func entityTable(form FormInfo) string { return form.Name + "_entities" }
func eavTable(form FormInfo) string    { return form.Name + "_eav" }

func (Generic) entitySchema(form FormInfo) *relstore.Schema {
	return relstore.MustSchema(relstore.Column{Name: form.KeyColumn, Type: relstore.KindInt, NotNull: true})
}

func (Generic) eavSchema(form FormInfo) *relstore.Schema {
	return relstore.MustSchema(
		relstore.Column{Name: form.KeyColumn, Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "Attribute", Type: relstore.KindString, NotNull: true},
		relstore.Column{Name: "Value", Type: relstore.KindString},
	)
}

// Install implements Layout. Both tables index the key column so entity
// probes and per-record updates avoid scans.
func (g Generic) Install(db *relstore.DB, form FormInfo) error {
	et, err := db.EnsureTable(entityTable(form), g.entitySchema(form))
	if err != nil {
		return err
	}
	if err := et.CreateIndex(form.KeyColumn); err != nil {
		return err
	}
	vt, err := db.EnsureTable(eavTable(form), g.eavSchema(form))
	if err != nil {
		return err
	}
	return vt.CreateIndex(form.KeyColumn)
}

// Write implements Layout.
func (g Generic) Write(db *relstore.DB, form FormInfo, row relstore.Row) error {
	et, err := db.Table(entityTable(form))
	if err != nil {
		return err
	}
	vt, err := db.Table(eavTable(form))
	if err != nil {
		return err
	}
	ki := form.Schema.Index(form.KeyColumn)
	key := row[ki]
	if err := et.Insert(relstore.Row{key}); err != nil {
		return err
	}
	for i, c := range form.Schema.Columns {
		if i == ki || row[i].IsNull() {
			continue
		}
		r := relstore.Row{key, relstore.Str(c.Name), relstore.Str(row[i].Display())}
		if err := vt.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// Read implements Layout: un-pivot the EAV rows and attach them to the
// entity anchors in one pass, as a left join of the anchors with the
// un-pivoted rows would, so all-NULL instances survive: the anchors with
// EAV rows in anchor order, then those without; EAV rows without an anchor
// drop out. The rows come back key column first. Both tables are fetched
// with the key conjuncts of where (index probes), so the read is exact
// when where is a key predicate.
func (g Generic) Read(_ context.Context, db *relstore.DB, form FormInfo, where relstore.Pred, _ func(SourceMiss)) (*relstore.Rows, bool, error) {
	keyed, exact := KeyConjuncts(form, where)
	entities, err := selectFrom(db, entityTable(form), keyed)
	if err != nil {
		return nil, false, err
	}
	eav, err := selectFrom(db, eavTable(form), keyed)
	if err != nil {
		return nil, false, err
	}
	var attrs []relstore.Column
	for _, c := range form.Schema.Columns {
		if c.Name != form.KeyColumn {
			attrs = append(attrs, relstore.Column{Name: c.Name, Type: c.Type})
		}
	}
	wide, err := relstore.Unpivot(eav, []string{form.KeyColumn}, "Attribute", "Value", attrs)
	if err != nil {
		return nil, false, err
	}
	// Keys are INTEGER NOT NULL (entitySchema, eavSchema): AsInt matches
	// them exactly, and Unpivot left one row per key.
	byKey := make(map[int64]relstore.Row, len(wide.Data))
	for _, r := range wide.Data {
		byKey[r[0].AsInt()] = r
	}
	out := make([]relstore.Row, 0, len(entities.Data))
	var bare []relstore.Row
	for _, e := range entities.Data {
		if r, ok := byKey[e[0].AsInt()]; ok {
			out = append(out, r)
		} else {
			bare = append(bare, append(relstore.Row{e[0]}, make(relstore.Row, len(attrs))...))
		}
	}
	return &relstore.Rows{Schema: wide.Schema, Data: append(out, bare...)}, exact, nil
}

// Update implements Layout: rewrite the EAV row for (key, col), inserting or
// deleting it as the new value is non-NULL or NULL.
func (g Generic) Update(db *relstore.DB, form FormInfo, key relstore.Value, col string, v relstore.Value) (int, error) {
	if col == form.KeyColumn {
		return 0, fmt.Errorf("patterns: generic update: cannot update key column")
	}
	if !form.Schema.Has(col) {
		return 0, fmt.Errorf("patterns: generic update: no column %q", col)
	}
	et, err := db.Table(entityTable(form))
	if err != nil {
		return 0, err
	}
	exists, err := et.Lookup(form.KeyColumn, key)
	if err != nil {
		return 0, err
	}
	if len(exists) == 0 {
		return 0, nil
	}
	vt, err := db.Table(eavTable(form))
	if err != nil {
		return 0, err
	}
	pred := relstore.And(
		relstore.Eq(form.KeyColumn, key),
		relstore.Eq("Attribute", relstore.Str(col)),
	)
	if _, err := vt.Delete(pred); err != nil {
		return 0, err
	}
	if !v.IsNull() {
		if err := vt.Insert(relstore.Row{key, relstore.Str(col), relstore.Str(v.Display())}); err != nil {
			return 0, err
		}
	}
	return len(exists), nil
}

// PhysicalTables implements Layout.
func (Generic) PhysicalTables(form FormInfo) []string {
	return []string{entityTable(form), eavTable(form)}
}
