package etl

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"guava/internal/relstore"
)

// TestRowwiseDeriveMatchesEval: a query run row-wise with a quarantine
// budget diverts exactly the rows on which evaluating a derivation with
// relstore's Expr.Eval fails, each with that error's text, and outputs the
// others as Eval derives them. The derivations are seeded random trees
// over NULL-dense cells of every kind: an unknown column, CASEs whose
// results fail where their guards are false and whose guards fail,
// arithmetic by zero and over strings, negation, and functions with an
// unknown name or the wrong arity.
func TestRowwiseDeriveMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	schema := relstore.MustSchema(
		relstore.Column{Name: "A", Type: relstore.KindInt},
		relstore.Column{Name: "B", Type: relstore.KindString},
	)
	cell := func() relstore.Value {
		return []relstore.Value{relstore.Null(), relstore.Null(), relstore.Int(0), relstore.Int(3),
			relstore.Float(-1.5), relstore.Str("x"), relstore.Str(" 4 "), relstore.Bool(true)}[r.Intn(8)]
	}
	var expr func(depth int) relstore.Expr
	expr = func(depth int) relstore.Expr {
		if depth == 0 || r.Intn(4) == 0 {
			return []relstore.Expr{relstore.Col("A"), relstore.Col("B"), relstore.Col("nope"), relstore.Lit(cell())}[r.Intn(4)]
		}
		switch r.Intn(4) {
		case 0:
			guard := []relstore.Pred{nil, relstore.IsNull(relstore.Col("A")), relstore.IsNull(relstore.Col("nope")),
				relstore.Cmp(relstore.CmpLt, relstore.Col("B"), relstore.Lit(cell())),
				relstore.Cmp(relstore.CmpGt, expr(depth-1), relstore.Lit(relstore.Int(1)))}[r.Intn(5)]
			return relstore.CaseExpr{Branches: []relstore.CaseBranch{{When: guard, Then: expr(depth - 1)}}, Else: expr(depth - 1)}
		case 1:
			return relstore.Arith(relstore.ArithOp(r.Intn(5)), expr(depth-1), expr(depth-1))
		case 2:
			return relstore.Neg(expr(depth - 1))
		}
		f := relstore.FuncExpr{Name: []string{"ABS", "UPPER", "ROUND", "COALESCE", "NOPE"}[r.Intn(5)], Args: []relstore.Expr{expr(depth - 1)}}
		if r.Intn(5) == 0 {
			f.Args = append(f.Args, expr(depth-1))
		}
		return f
	}
	kinds := []relstore.Kind{relstore.KindNull, relstore.KindInt, relstore.KindFloat, relstore.KindString}
	diverted := 0
	for trial := 0; trial < 200; trial++ {
		in := &relstore.Rows{Schema: schema}
		for n := r.Intn(20); n > 0; n-- {
			in.Data = append(in.Data, relstore.Row{cell(), cell()})
		}
		q := &Query{From: TableRef{DB: "db", Table: "t"}}
		for i := 0; i < 1+r.Intn(2); i++ {
			q.Derive = append(q.Derive, relstore.Derivation{Name: fmt.Sprintf("d%d", i), Type: kinds[r.Intn(4)], Expr: expr(3)})
		}
		var wantRows []relstore.Row
		var wantErrs []string
		for _, row := range in.Data {
			var nr relstore.Row
			var err error
			for _, d := range q.Derive {
				var v relstore.Value
				if v, err = d.Expr.Eval(row, schema); err == nil && d.Type != relstore.KindNull {
					v, err = relstore.Coerce(v, d.Type)
				}
				if err != nil {
					err = fmt.Errorf("derive %s: %w", d.Name, err)
					break
				}
				nr = append(nr, v)
			}
			if err != nil {
				wantErrs = append(wantErrs, err.Error()+" | "+renderRow(row, schema))
			} else {
				wantRows = append(wantRows, nr)
			}
		}
		quar := newQuarantine("w", len(in.Data))
		out, err := q.runRowwise(context.Background(), quar, in)
		if err != nil {
			t.Fatal(err)
		}
		var gotErrs []string
		for _, e := range quar.entries {
			if e.Rule != "derive" {
				t.Fatalf("trial %d: quarantined under rule %q", trial, e.Rule)
			}
			gotErrs = append(gotErrs, e.Err+" | "+e.RowData)
		}
		if fmt.Sprint(gotErrs) != fmt.Sprint(wantErrs) {
			t.Fatalf("trial %d: diverted\n%q\nwant\n%q", trial, gotErrs, wantErrs)
		}
		if fmt.Sprintf("%v", out.Data) != fmt.Sprintf("%v", wantRows) {
			t.Fatalf("trial %d: output %v, want %v", trial, out.Data, wantRows)
		}
		for i, row := range out.Data {
			for c, v := range row {
				if v.Kind() != wantRows[i][c].Kind() {
					t.Fatalf("trial %d row %d col %d: %v, want %v", trial, i, c, v, wantRows[i][c])
				}
			}
		}
		diverted += len(gotErrs)
	}
	if diverted == 0 {
		t.Fatal("no row was diverted: the test reaches no error path")
	}
}
