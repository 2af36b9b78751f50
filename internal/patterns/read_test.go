package patterns

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"guava/internal/relstore"
)

// The one-pass Split and Generic reads are held to the operator chains they
// replaced, kept here as references: Split's left-deep chain of binary
// Joins, each followed by a Project that drops the duplicated key, and
// Generic's Unpivot, left join onto the anchors, and Project. Both sides
// fetch with the same key conjuncts and must return the same rows in the
// same order, cell kinds included.

// refSplitRead is Split's read as a left-deep Join+Project chain.
func refSplitRead(db *relstore.DB, form FormInfo, parts [][]string, keyed relstore.Pred) (*relstore.Rows, error) {
	var acc *relstore.Rows
	for i := range parts {
		rows, err := selectFrom(db, partTable(form, i), keyed)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = rows
			continue
		}
		joined, err := relstore.Join(acc, rows, form.KeyColumn, form.KeyColumn, fmt.Sprintf("p%d", i))
		if err != nil {
			return nil, err
		}
		var keep []string
		for _, n := range joined.Schema.Names() {
			if n != fmt.Sprintf("p%d_%s", i, form.KeyColumn) {
				keep = append(keep, n)
			}
		}
		if acc, err = relstore.Project(joined, keep...); err != nil {
			return nil, err
		}
	}
	if acc == nil {
		return &relstore.Rows{Schema: form.Schema}, nil
	}
	return relstore.Project(acc, form.Schema.Names()...)
}

// refGenericRead is Generic's read as Unpivot, a left join of the anchors
// with the un-pivoted rows (the inner join, then every unmatched anchor
// padded with NULLs), and a Project to the form's columns.
func refGenericRead(db *relstore.DB, form FormInfo, keyed relstore.Pred) (*relstore.Rows, error) {
	entities, err := selectFrom(db, entityTable(form), keyed)
	if err != nil {
		return nil, err
	}
	eav, err := selectFrom(db, eavTable(form), keyed)
	if err != nil {
		return nil, err
	}
	var attrs []relstore.Column
	for _, c := range form.Schema.Columns {
		if c.Name != form.KeyColumn {
			attrs = append(attrs, relstore.Column{Name: c.Name, Type: c.Type})
		}
	}
	wide, err := relstore.Unpivot(eav, []string{form.KeyColumn}, "Attribute", "Value", attrs)
	if err != nil {
		return nil, err
	}
	joined, err := relstore.Join(entities, wide, form.KeyColumn, form.KeyColumn, "v")
	if err != nil {
		return nil, err
	}
	matched := map[int64]bool{}
	for _, r := range wide.Data {
		matched[r[0].AsInt()] = true
	}
	for _, e := range entities.Data {
		if !matched[e[0].AsInt()] {
			joined.Data = append(joined.Data, append(append(relstore.Row{}, e...), make(relstore.Row, len(wide.Schema.Columns))...))
		}
	}
	return relstore.Project(joined, form.Schema.Names()...)
}

// sameRows requires the same schema and the same rows in the same order,
// compared through their typed JSON lines so a cell's kind counts.
func sameRows(got, want *relstore.Rows) error {
	if !got.Schema.Equal(want.Schema) {
		return fmt.Errorf("schema (%s), want (%s)", got.Schema.NameList(), want.Schema.NameList())
	}
	if len(got.Data) != len(want.Data) {
		return fmt.Errorf("%d rows, want %d", len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		g, _ := relstore.AppendRowJSON(nil, got.Data[i])
		w, _ := relstore.AppendRowJSON(nil, want.Data[i])
		if string(g) != string(w) {
			return fmt.Errorf("row %d: %s, want %s", i, g, w)
		}
	}
	return nil
}

// readForms are the forms the read tests store: testForm's, and one whose
// key column stands in the middle, so the one-pass reads must place it.
func readForms(t *testing.T) []FormInfo {
	form, _ := testForm(t)
	mid := relstore.MustSchema(
		relstore.Column{Name: "Smoking", Type: relstore.KindString},
		relstore.Column{Name: "ProcedureID", Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "Age", Type: relstore.KindInt},
		relstore.Column{Name: "Hypoxia", Type: relstore.KindBool},
	)
	return []FormInfo{form, {Name: "Mid", KeyColumn: "ProcedureID", Schema: mid}}
}

// randCell draws a cell of kind k, NULL a quarter of the time.
func randCell(r *rand.Rand, k relstore.Kind) relstore.Value {
	if r.Intn(4) == 0 {
		return relstore.Null()
	}
	switch k {
	case relstore.KindInt:
		return relstore.Int(int64(r.Intn(5)))
	case relstore.KindFloat:
		return relstore.Float(float64(r.Intn(8)) / 2)
	case relstore.KindBool:
		return relstore.Bool(r.Intn(2) == 0)
	}
	return relstore.Str(string(rune('a' + r.Intn(3))))
}

// readWheres are the predicates each read is tried with: none, keyed (an
// equality and an IN), unkeyed, and keyed and unkeyed conjoined.
func readWheres(r *rand.Rand, form FormInfo) []relstore.Pred {
	key := func() relstore.Value { return relstore.Int(int64(1 + r.Intn(8))) }
	other := relstore.Eq("Smoking", relstore.Str("a"))
	return []relstore.Pred{
		nil,
		relstore.Eq(form.KeyColumn, key()),
		relstore.In(relstore.Col(form.KeyColumn), key(), key(), key()),
		other,
		relstore.And(relstore.In(relstore.Col(form.KeyColumn), key(), key(), key(), key()), other),
	}
}

// TestSplitReadEqualsJoinChain seeds part tables directly — keys 1..8 drawn
// at random, so a part can hold a key twice (a cross product) or miss a
// record another part has — and holds Split.Read to refSplitRead.
func TestSplitReadEqualsJoinChain(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, form := range readForms(t) {
		for _, split := range []*Split{{}, {Parts: [][]string{{"Smoking"}, {"Age", "Hypoxia"}}}} {
			parts, err := split.partition(form)
			if err != nil {
				continue // the explicit parts fit only the middle-key form
			}
			for trial := 0; trial < 40; trial++ {
				db := relstore.NewDB("split")
				if err := split.Install(db, form); err != nil {
					t.Fatal(err)
				}
				for i, part := range parts {
					tab, _ := db.Table(partTable(form, i))
					for n := r.Intn(10); n > 0; n-- {
						row := relstore.Row{relstore.Int(int64(1 + r.Intn(8)))}
						for _, col := range part {
							c, _ := form.Schema.Col(col)
							row = append(row, randCell(r, c.Type))
						}
						if err := tab.Insert(row); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, where := range readWheres(r, form) {
					keyed, wantExact := KeyConjuncts(form, where)
					want, err := refSplitRead(db, form, parts, keyed)
					if err != nil {
						t.Fatal(err)
					}
					got, exact, err := split.Read(context.Background(), db, form, where, nil)
					if err != nil {
						t.Fatal(err)
					}
					if e := sameRows(got, want); e != nil || exact != wantExact {
						t.Fatalf("%s parts %v trial %d where %v: exact %v (want %v): %v", form.Name, parts, trial, where, exact, wantExact, e)
					}
				}
			}
		}
	}
}

// TestGenericReadEqualsUnpivotLeftJoin seeds the anchor and EAV tables
// directly — anchors without EAV rows and repeated anchors, EAV rows
// without an anchor, a key's attribute set twice, and attributes the form
// lacks — and holds Generic.Read, in the form's column order, to
// refGenericRead.
func TestGenericReadEqualsUnpivotLeftJoin(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	var g Generic
	for _, form := range readForms(t) {
		for trial := 0; trial < 40; trial++ {
			db := relstore.NewDB("generic")
			if err := g.Install(db, form); err != nil {
				t.Fatal(err)
			}
			et, _ := db.Table(entityTable(form))
			vt, _ := db.Table(eavTable(form))
			for n := r.Intn(8); n > 0; n-- {
				if err := et.Insert(relstore.Row{relstore.Int(int64(1 + r.Intn(8)))}); err != nil {
					t.Fatal(err)
				}
			}
			for n := r.Intn(20); n > 0; n-- {
				attr, val := "Bogus", relstore.Str("zzz")
				if c := r.Intn(form.Schema.Arity() + 1); c < form.Schema.Arity() && form.Schema.Columns[c].Name != form.KeyColumn {
					attr = form.Schema.Columns[c].Name
					if v := randCell(r, form.Schema.Columns[c].Type); !v.IsNull() {
						val = relstore.Str(v.Display())
					} else {
						val = v
					}
				}
				if err := vt.Insert(relstore.Row{relstore.Int(int64(1 + r.Intn(8))), relstore.Str(attr), val}); err != nil {
					t.Fatal(err)
				}
			}
			for _, where := range readWheres(r, form) {
				keyed, wantExact := KeyConjuncts(form, where)
				want, err := refGenericRead(db, form, keyed)
				if err != nil {
					t.Fatal(err)
				}
				got, exact, err := g.Read(context.Background(), db, form, where, nil)
				if err == nil {
					got, err = relstore.Project(got, form.Schema.Names()...)
				}
				if err != nil {
					t.Fatal(err)
				}
				if e := sameRows(got, want); e != nil || exact != wantExact {
					t.Fatalf("%s trial %d where %v: exact %v (want %v): %v", form.Name, trial, where, exact, wantExact, e)
				}
			}
		}
	}
}
