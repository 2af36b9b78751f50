package patterns

import (
	"context"
	"fmt"

	"guava/internal/relstore"
)

// Split is the Table 1 pattern where "attributes from a single form are
// distributed over several tables"; reading requires the Join transformation
// on the shared key. Each part table holds the key plus a subset of the
// form's columns.
type Split struct {
	// Parts assigns non-key columns to part tables; part i is stored in
	// table "<form>_part<i>". Nil Parts auto-splits columns pairwise.
	Parts [][]string
}

// Name implements Layout.
func (*Split) Name() string { return "Split" }

// Describe implements Layout.
func (*Split) Describe() string {
	return "Attributes from a single form are distributed over several tables; reading joins the part tables on the form key."
}

// partition returns the resolved column groups for a form, validating
// coverage and disjointness.
func (s *Split) partition(form FormInfo) ([][]string, error) {
	nonKey := make([]string, 0, form.Schema.Arity()-1)
	for _, c := range form.Schema.Columns {
		if c.Name != form.KeyColumn {
			nonKey = append(nonKey, c.Name)
		}
	}
	if s.Parts == nil {
		// Auto-split: two columns per part table.
		var parts [][]string
		for i := 0; i < len(nonKey); i += 2 {
			parts = append(parts, nonKey[i:min(i+2, len(nonKey))])
		}
		if len(parts) == 0 {
			parts = [][]string{{}}
		}
		return parts, nil
	}
	seen := map[string]bool{}
	for _, part := range s.Parts {
		for _, col := range part {
			if col == form.KeyColumn {
				return nil, fmt.Errorf("patterns: split: key column %q cannot be assigned to a part", col)
			}
			if !form.Schema.Has(col) {
				return nil, fmt.Errorf("patterns: split: unknown column %q", col)
			}
			if seen[col] {
				return nil, fmt.Errorf("patterns: split: column %q assigned twice", col)
			}
			seen[col] = true
		}
	}
	for _, col := range nonKey {
		if !seen[col] {
			return nil, fmt.Errorf("patterns: split: column %q not assigned to any part", col)
		}
	}
	return s.Parts, nil
}

func partTable(form FormInfo, i int) string { return fmt.Sprintf("%s_part%d", form.Name, i) }

func (s *Split) partSchema(form FormInfo, part []string) (*relstore.Schema, error) {
	cols := []relstore.Column{{Name: form.KeyColumn, Type: relstore.KindInt, NotNull: true}}
	for _, name := range part {
		c, err := form.Schema.Col(name)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	return relstore.NewSchema(cols...)
}

// Install implements Layout. Every part table indexes the shared key so
// per-record fetches (keyed reads, Update) probe instead of scanning.
func (s *Split) Install(db *relstore.DB, form FormInfo) error {
	parts, err := s.partition(form)
	if err != nil {
		return err
	}
	for i, part := range parts {
		schema, err := s.partSchema(form, part)
		if err != nil {
			return err
		}
		t, err := db.EnsureTable(partTable(form, i), schema)
		if err != nil {
			return err
		}
		if err := t.CreateIndex(form.KeyColumn); err != nil {
			return err
		}
	}
	return nil
}

// Write implements Layout.
func (s *Split) Write(db *relstore.DB, form FormInfo, row relstore.Row) error {
	parts, err := s.partition(form)
	if err != nil {
		return err
	}
	key := row[form.Schema.Index(form.KeyColumn)]
	for i, part := range parts {
		t, err := db.Table(partTable(form, i))
		if err != nil {
			return err
		}
		pr := make(relstore.Row, 0, len(part)+1)
		pr = append(pr, key)
		for _, col := range part {
			pr = append(pr, row[form.Schema.Index(col)])
		}
		if err := t.Insert(pr); err != nil {
			return err
		}
	}
	return nil
}

// Read implements Layout: the paper's Join transformation as one n-way key
// join. Each part table is fetched once with the key conjuncts of where
// (index probes), so the read is exact when where is a key predicate, and
// each output row is written once, in the form's column order. Rows follow
// part 0's storage order and, within one record, every combination of the
// later parts' matches in their storage order, the last part's fastest:
// the order of a left-deep chain of binary joins, cross products included.
func (s *Split) Read(_ context.Context, db *relstore.DB, form FormInfo, where relstore.Pred, _ func(SourceMiss)) (*relstore.Rows, bool, error) {
	parts, err := s.partition(form)
	if err != nil {
		return nil, false, err
	}
	keyed, exact := KeyConjuncts(form, where)
	out := &relstore.Rows{Schema: form.Schema}
	// Part keys are INTEGER NOT NULL (partSchema), so AsInt matches them
	// exactly. For part i, at[i] maps each column to its form position;
	// from part 1 on, head[i] maps a key to 1 + the first row holding it
	// (0: none) and next[i] chains each row to the next one with its key
	// (-1: none), in storage order.
	data, at := make([][]relstore.Row, len(parts)), make([][]int, len(parts))
	head, next := make([]map[int64]int, len(parts)), make([][]int, len(parts))
	for i, part := range parts {
		rows, err := selectFrom(db, partTable(form, i), keyed)
		if err != nil {
			return nil, false, err
		}
		data[i], at[i] = rows.Data, []int{form.Schema.Index(form.KeyColumn)}
		for _, col := range part {
			at[i] = append(at[i], form.Schema.Index(col))
		}
		if i == 0 {
			continue
		}
		head[i], next[i] = make(map[int64]int, len(rows.Data)), make([]int, len(rows.Data))
		for j := len(rows.Data) - 1; j >= 0; j-- {
			k := rows.Data[j][0].AsInt()
			next[i][j], head[i][k] = head[i][k]-1, j+1
		}
	}
	if len(parts) == 0 {
		return out, exact, nil
	}
	row := make(relstore.Row, form.Schema.Arity())
	var join func(i int, key int64)
	join = func(i int, key int64) {
		if i == len(parts) {
			out.Data = append(out.Data, row.Clone())
			return
		}
		for j := head[i][key] - 1; j >= 0; j = next[i][j] {
			for c, p := range at[i] {
				row[p] = data[i][j][c]
			}
			join(i+1, key)
		}
	}
	out.Data = make([]relstore.Row, 0, len(data[0]))
	for _, r := range data[0] {
		for c, p := range at[0] {
			row[p] = r[c]
		}
		join(1, r[0].AsInt())
	}
	return out, exact, nil
}

// Update implements Layout: the change lands in whichever part table holds
// the column.
func (s *Split) Update(db *relstore.DB, form FormInfo, key relstore.Value, col string, v relstore.Value) (int, error) {
	parts, err := s.partition(form)
	if err != nil {
		return 0, err
	}
	for i, part := range parts {
		for _, name := range part {
			if name != col {
				continue
			}
			t, err := db.Table(partTable(form, i))
			if err != nil {
				return 0, err
			}
			ci := t.Schema().Index(col)
			return t.Update(relstore.Eq(form.KeyColumn, key), func(r relstore.Row) relstore.Row {
				r[ci] = v
				return r
			})
		}
	}
	return 0, fmt.Errorf("patterns: split update: no column %q", col)
}

// PhysicalTables implements Layout.
func (s *Split) PhysicalTables(form FormInfo) []string {
	parts, err := s.partition(form)
	if err != nil {
		return nil
	}
	out := make([]string, len(parts))
	for i := range parts {
		out[i] = partTable(form, i)
	}
	return out
}
