// Package patterns implements the database design patterns of Table 1 of
// the paper, plus the extended set the paper alludes to ("we have identified
// 11 distinct database patterns so far"). A pattern describes how the naive
// schema of a form — one table per screen, one column per control — maps to
// the physical layout a reporting tool actually uses, and "each pattern
// describes a data transformation; several put together describe how to
// translate a query against the g-tree into one against the database".
//
// The package models a pattern stack as zero or more Transforms (row- and
// schema-level rewrites such as Audit, Rename, Encode, Sentinel, Lookup,
// Delimited) wrapped around exactly one Layout (a physical table design:
// Naive, Merge, Split, Generic/EAV, Partitioned). Stacks are bidirectional:
// Write pushes a naive row down to physical storage, Update routes a
// single-column change through every layer, and every read — the whole
// relation, a key scope, a g-tree query — is one pipeline: the predicate is
// rewritten inward through the transforms (pushdown.go), the layout's one
// Read evaluates what it can of it at the physical scan and hands the
// records it cannot reconstruct to a miss sink, and the stack decodes
// outward and re-applies the predicate (divert.go). So the g-tree behaves
// like a view over any physical design.
//
// The eleven named patterns:
//
//	Layouts:    Naive, Merge, Split (read side: Join), Generic (read side:
//	            un-pivot), Partitioned
//	Transforms: Audit, Rename, Encode, Sentinel, Lookup, Delimited
package patterns

import (
	"context"
	"fmt"

	"guava/internal/relstore"
	"guava/internal/ui"
)

// FormInfo carries what a pattern needs to know about a form: its name, its
// instance-key column, and its naive schema (key column first).
type FormInfo struct {
	Name      string
	KeyColumn string
	Schema    *relstore.Schema
}

// FromUIForm derives the FormInfo of a ui.Form.
func FromUIForm(f *ui.Form) (FormInfo, error) {
	s, err := f.NaiveSchema()
	if err != nil {
		return FormInfo{}, err
	}
	return FormInfo{Name: f.Name, KeyColumn: f.KeyColumn, Schema: s}, nil
}

// Layout is a physical table design for one form's data.
type Layout interface {
	// Name returns the pattern name as listed in Table 1.
	Name() string
	// Describe returns the Table 1 description of the pattern's data
	// transformation.
	Describe() string
	// Install creates the physical tables for the form.
	Install(db *relstore.DB, form FormInfo) error
	// Write stores one naive-schema row.
	Write(db *relstore.DB, form FormInfo, row relstore.Row) error
	// Read reconstructs from physical storage every record of the naive
	// relation that satisfies where (nil: every record), and possibly
	// more: exact reports that every returned row satisfies where — it
	// was evaluated at the physical scan — and otherwise the caller
	// filters. A source record the layout cannot reconstruct goes to miss
	// instead of failing the read.
	Read(ctx context.Context, db *relstore.DB, form FormInfo, where relstore.Pred, miss func(SourceMiss)) (rows *relstore.Rows, exact bool, err error)
	// Update sets one column of the record with the given key, returning
	// how many records changed.
	Update(db *relstore.DB, form FormInfo, key relstore.Value, col string, v relstore.Value) (int, error)
	// PhysicalTables lists the physical table names backing the form.
	PhysicalTables(form FormInfo) []string
}

// Transform is a reversible rewrite layered above a Layout (or above another
// Transform).
type Transform interface {
	// Name returns the pattern name.
	Name() string
	// Describe returns the pattern's data-transformation description.
	Describe() string
	// Adapt rewrites the form info seen by inner layers.
	Adapt(form FormInfo) (FormInfo, error)
	// Install creates any side tables the transform needs (e.g. lookup
	// dimension tables).
	Install(db *relstore.DB, outer, inner FormInfo) error
	// Encode rewrites one outer-schema row into the inner schema.
	Encode(db *relstore.DB, outer, inner FormInfo, row relstore.Row) (relstore.Row, error)
	// Decode rewrites the full inner relation back to the outer schema.
	Decode(db *relstore.DB, outer, inner FormInfo, rows *relstore.Rows) (*relstore.Rows, error)
	// AdaptUpdate rewrites a single-column update for inner layers.
	AdaptUpdate(db *relstore.DB, outer, inner FormInfo, col string, v relstore.Value) (string, relstore.Value, error)
}

// Stack is a complete pattern configuration: outermost transform first, then
// inward to the base layout.
type Stack struct {
	Transforms []Transform
	Layout     Layout

	// Journal, when set, records the instance key of every WriteRow,
	// Update, and Deprecate that lands — the change log an incremental
	// (delta) refresh reads instead of re-extracting the whole relation.
	Journal *Journal
}

// NewStack builds a stack over a layout.
func NewStack(layout Layout, transforms ...Transform) *Stack {
	return &Stack{Transforms: transforms, Layout: layout}
}

// Describe renders the whole stack for documentation: pattern names from the
// outside in.
func (s *Stack) Describe() string {
	out := ""
	for _, t := range s.Transforms {
		out += t.Name() + " ∘ "
	}
	return out + s.Layout.Name()
}

// adaptAll returns the form info at every level: index 0 is the outer naive
// form, index len(Transforms) is what the layout sees.
func (s *Stack) adaptAll(form FormInfo) ([]FormInfo, error) {
	infos := make([]FormInfo, 0, len(s.Transforms)+1)
	infos = append(infos, form)
	cur := form
	for _, t := range s.Transforms {
		next, err := t.Adapt(cur)
		if err != nil {
			return nil, fmt.Errorf("patterns: %s: %w", t.Name(), err)
		}
		infos = append(infos, next)
		cur = next
	}
	return infos, nil
}

// Install creates all physical storage for the form.
func (s *Stack) Install(db *relstore.DB, form FormInfo) error {
	infos, err := s.adaptAll(form)
	if err != nil {
		return err
	}
	for i, t := range s.Transforms {
		if err := t.Install(db, infos[i], infos[i+1]); err != nil {
			return fmt.Errorf("patterns: install %s: %w", t.Name(), err)
		}
	}
	if err := s.Layout.Install(db, infos[len(infos)-1]); err != nil {
		return fmt.Errorf("patterns: install %s: %w", s.Layout.Name(), err)
	}
	return nil
}

// WriteValues stores one record given as a column→value map over the naive
// schema (the shape ui.Entry submits).
func (s *Stack) WriteValues(db *relstore.DB, form FormInfo, values map[string]relstore.Value) error {
	row := make(relstore.Row, form.Schema.Arity())
	for i, c := range form.Schema.Columns {
		row[i] = values[c.Name]
	}
	return s.WriteRow(db, form, row)
}

// WriteRow stores one naive-schema row.
func (s *Stack) WriteRow(db *relstore.DB, form FormInfo, row relstore.Row) error {
	infos, err := s.adaptAll(form)
	if err != nil {
		return err
	}
	if err := form.Schema.Validate(row); err != nil {
		return fmt.Errorf("patterns: write %s: %w", form.Name, err)
	}
	cur := row
	for i, t := range s.Transforms {
		cur, err = t.Encode(db, infos[i], infos[i+1], cur)
		if err != nil {
			return fmt.Errorf("patterns: encode %s: %w", t.Name(), err)
		}
	}
	if err := s.Layout.Write(db, infos[len(infos)-1], cur); err != nil {
		return fmt.Errorf("patterns: write %s: %w", s.Layout.Name(), err)
	}
	if s.Journal != nil {
		return s.Journal.Record(db, form, row[form.Schema.Index(form.KeyColumn)])
	}
	return nil
}

// Read reconstructs the whole naive relation, conformed exactly to the
// form's naive schema. It is ReadDiverting with no key scope, failing on
// the first source miss.
func (s *Stack) Read(db *relstore.DB, form FormInfo) (*relstore.Rows, error) {
	return strict(s.ReadDiverting(context.Background(), db, form, nil))
}

// ReadKeys is Read limited to the records with the given instance keys
// (see ReadDiverting); no keys read nothing.
func (s *Stack) ReadKeys(db *relstore.DB, form FormInfo, keys []relstore.Value) (*relstore.Rows, error) {
	return strict(s.ReadDiverting(context.Background(), db, form, append([]relstore.Value{}, keys...)))
}

// QueryNoPushdown is QueryWithInfo with pushdown disabled — the ablation
// baseline: it reads the whole relation, then filters and projects.
func (s *Stack) QueryNoPushdown(db *relstore.DB, form FormInfo, pred relstore.Pred, cols []string) (*relstore.Rows, error) {
	rows, err := s.Read(db, form)
	if err != nil {
		return nil, err
	}
	rows, err = relstore.Select(rows, pred)
	if err != nil {
		return nil, err
	}
	if cols == nil {
		return rows, nil
	}
	return relstore.Project(rows, cols...)
}

// Update changes one column of the record identified by key, routing the
// change through every transform down to physical storage.
func (s *Stack) Update(db *relstore.DB, form FormInfo, key relstore.Value, col string, v relstore.Value) (int, error) {
	infos, err := s.adaptAll(form)
	if err != nil {
		return 0, err
	}
	curCol, curV := col, v
	for i, t := range s.Transforms {
		curCol, curV, err = t.AdaptUpdate(db, infos[i], infos[i+1], curCol, curV)
		if err != nil {
			return 0, fmt.Errorf("patterns: update via %s: %w", t.Name(), err)
		}
	}
	n, err := s.Layout.Update(db, infos[len(infos)-1], key, curCol, curV)
	if err == nil && n > 0 && s.Journal != nil {
		err = s.Journal.Record(db, form, key)
	}
	return n, err
}

// Deprecate marks the record with the given key as deleted through the
// stack's Audit transform. It fails when the stack has no Audit layer.
func (s *Stack) Deprecate(db *relstore.DB, form FormInfo, key relstore.Value) (int, error) {
	infos, err := s.adaptAll(form)
	if err != nil {
		return 0, err
	}
	for i, t := range s.Transforms {
		a, ok := t.(*Audit)
		if !ok {
			continue
		}
		// The audit column exists at level i+1; route the update through
		// the remaining transforms.
		curCol, curV := a.column(), relstore.Int(1)
		for j := i + 1; j < len(s.Transforms); j++ {
			curCol, curV, err = s.Transforms[j].AdaptUpdate(db, infos[j], infos[j+1], curCol, curV)
			if err != nil {
				return 0, fmt.Errorf("patterns: deprecate via %s: %w", s.Transforms[j].Name(), err)
			}
		}
		n, err := s.Layout.Update(db, infos[len(infos)-1], key, curCol, curV)
		if err == nil && n > 0 && s.Journal != nil {
			err = s.Journal.Record(db, form, key)
		}
		return n, err
	}
	return 0, fmt.Errorf("patterns: stack %s has no Audit layer to deprecate through", s.Describe())
}

// PhysicalTables lists every physical table of the stack, side tables
// included, for documentation output.
func (s *Stack) PhysicalTables(form FormInfo) ([]string, error) {
	infos, err := s.adaptAll(form)
	if err != nil {
		return nil, err
	}
	var out []string
	for i, t := range s.Transforms {
		if lt, ok := t.(interface{ SideTables(FormInfo) []string }); ok {
			out = append(out, lt.SideTables(infos[i])...)
		}
	}
	out = append(out, s.Layout.PhysicalTables(infos[len(infos)-1])...)
	return out, nil
}

// Sink adapts a stack+database to the ui.RecordSink interface so form
// entries submit straight through the pattern stack, exactly as a reporting
// tool writes its own database.
type Sink struct {
	DB    *relstore.DB
	Stack *Stack
}

// WriteRecord implements ui.RecordSink.
func (s *Sink) WriteRecord(form *ui.Form, values map[string]relstore.Value) error {
	info, err := FromUIForm(form)
	if err != nil {
		return err
	}
	return s.Stack.WriteValues(s.DB, info, values)
}

// Conform reorders and retypes a relation to match the target schema by
// column name. Pattern round trips may lose column order or nullability;
// Conform restores the naive-schema contract. When the columns already
// stand in target order and every cell is NULL or of its column's kind, it
// returns the input rows themselves under the target schema.
func Conform(rows *relstore.Rows, target *relstore.Schema) (*relstore.Rows, error) {
	same := rows.Schema.Arity() == target.Arity()
	for i, c := range target.Columns {
		j := rows.Schema.Index(c.Name)
		if j < 0 {
			return nil, fmt.Errorf("patterns: conform: missing column %q (have %s)", c.Name, rows.Schema.NameList())
		}
		same = same && j == i
	}
	for r := 0; same && r < len(rows.Data); r++ {
		for i, v := range rows.Data[r] {
			same = same && (v.IsNull() || v.Kind() == target.Columns[i].Type)
		}
	}
	if same {
		return &relstore.Rows{Schema: target, Data: rows.Data}, nil
	}
	return mapCells(rows, target.Names(), target, func(i int, v relstore.Value) (relstore.Value, error) {
		c := target.Columns[i]
		if v.IsNull() || v.Kind() == c.Type {
			return v, nil
		}
		cv, err := relstore.Coerce(v, c.Type)
		if err != nil {
			return v, fmt.Errorf("patterns: conform %q: %w", c.Name, err)
		}
		return cv, nil
	})
}

// mapCells reorders rows to the named columns and writes one new row per
// record under schema, each cell rewritten by fn, which gets the cell's
// position in names. The first error fails the call. Conform and the
// per-cell decodes (Sentinel, Encode, Lookup) run on it.
func mapCells(rows *relstore.Rows, names []string, schema *relstore.Schema, fn func(i int, v relstore.Value) (relstore.Value, error)) (*relstore.Rows, error) {
	ordered, err := relstore.Project(rows, names...)
	if err != nil {
		return nil, err
	}
	data := make([]relstore.Row, len(ordered.Data))
	for r, row := range ordered.Data {
		nr := make(relstore.Row, len(row))
		for i, v := range row {
			if nr[i], err = fn(i, v); err != nil {
				return nil, err
			}
		}
		data[r] = nr
	}
	return &relstore.Rows{Schema: schema, Data: data}, nil
}
