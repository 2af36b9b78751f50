package relstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// bindSchema is the input of the bound-evaluation harness; its cells hold
// any kind, whatever the column type says.
var bindSchema = MustSchema(
	Column{Name: "A", Type: KindInt},
	Column{Name: "B", Type: KindFloat},
	Column{Name: "C", Type: KindString},
	Column{Name: "D", Type: KindBool},
)

// randCell is NULL half the time, else a cell of any kind: small ints and
// reals (zero included, for /0), short strings and bools.
func randCell(r *rand.Rand) Value {
	switch r.Intn(8) {
	case 0, 1, 2, 3:
		return Null()
	case 4:
		return Int(int64(r.Intn(5) - 2))
	case 5:
		return Float(float64(r.Intn(5)-2) / 2)
	case 6:
		return Str([]string{"", "a", " 3 ", "true"}[r.Intn(4)])
	}
	return Bool(r.Intn(2) == 0)
}

// randExpr builds a random expression tree over bindSchema: columns, an
// unknown column, literals, nested CASEs whose guards raise errors (an
// unknown column, an ordered comparison across kinds) or are nil,
// arithmetic (with /0 and string +), negation, and functions with unknown
// names and wrong arity.
func randExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(6) {
		case 0:
			return Col("nope")
		case 1, 2:
			return Lit(randCell(r))
		}
		return Col(bindSchema.Columns[r.Intn(4)].Name)
	}
	switch r.Intn(4) {
	case 0:
		c := CaseExpr{}
		for n := 1 + r.Intn(3); n > 0; n-- {
			var when Pred // nil: TRUE
			if r.Intn(6) > 0 {
				when = randGuard(r, depth-1)
			}
			c.Branches = append(c.Branches, CaseBranch{When: when, Then: randExpr(r, depth-1)})
		}
		if r.Intn(2) == 0 {
			c.Else = randExpr(r, depth-1)
		}
		return c
	case 1:
		return Arith(ArithOp(r.Intn(5)), randExpr(r, depth-1), randExpr(r, depth-1))
	case 2:
		return Neg(randExpr(r, depth-1))
	}
	f := FuncExpr{Name: []string{"ABS", "LENGTH", "LOWER", "UPPER", "TRIM", "ROUND", "COALESCE", "NOPE"}[r.Intn(8)]}
	n := 1
	if r.Intn(4) == 0 {
		n = r.Intn(3)
	}
	for ; n > 0; n-- {
		f.Args = append(f.Args, randExpr(r, depth-1))
	}
	return f
}

// randGuard is a CASE guard: a bound column shape, an expression
// comparison that falls back to Eval, or a combination.
func randGuard(r *rand.Rand, depth int) Pred {
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	switch r.Intn(6) {
	case 0:
		return Or(randGuard(r, depth), randGuard(r, depth))
	case 1:
		return IsNull(Col([]string{"A", "C", "nope"}[r.Intn(3)]))
	case 2:
		return Cmp(ops[r.Intn(6)], Col(bindSchema.Columns[r.Intn(4)].Name), Lit(randCell(r)))
	case 3:
		return In(Col("A"), Int(0), Int(1), Null())
	case 4:
		return And(randGuard(r, depth), randGuard(r, depth))
	case 5:
		return Not(randGuard(r, depth))
	}
	return Cmp(ops[r.Intn(6)], randExpr(r, depth), randExpr(r, depth))
}

// refDeriveRow is the row-at-a-time reference of a derivation: each Expr
// evaluated with Eval, a value of another kind than its column's coerced,
// and the first failure reported as "<verb> <name>: …".
func refDeriveRow(verb string, derivs []Derivation, row Row, s *Schema) (Row, error) {
	var nr Row
	for _, d := range derivs {
		v, err := d.Expr.Eval(row, s)
		if err == nil && !v.IsNull() && d.Type != KindNull && v.Kind() != d.Type {
			v, err = Coerce(v, d.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", verb, d.Name, err)
		}
		nr = append(nr, v)
	}
	return nr, nil
}

// TestBoundDeriveMatchesEval: over seeded random expression trees and
// NULL-dense rows of every kind, Derive and Extend return the rows, or the
// first error text, of a row-at-a-time Eval reference, and BindDerive —
// the unit the quarantine path applies per tuple — gives every row exactly
// the reference's row or error.
func TestBoundDeriveMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	kinds := []Kind{KindNull, KindInt, KindFloat, KindString, KindBool}
	failed := 0
	for trial := 0; trial < 400; trial++ {
		in := &Rows{Schema: bindSchema}
		for n := r.Intn(30); n > 0; n-- {
			in.Data = append(in.Data, Row{randCell(r), randCell(r), randCell(r), randCell(r)})
		}
		var derivs []Derivation
		for i := 0; i < 1+r.Intn(3); i++ {
			derivs = append(derivs, Derivation{Name: fmt.Sprintf("d%d", i), Type: kinds[r.Intn(5)], Expr: randExpr(r, 3)})
		}
		label := fmt.Sprintf("trial %d (%v)", trial, derivs)
		outSchema, err := DeriveSchema(derivs)
		if err != nil {
			t.Fatal(err)
		}
		extSchema, err := in.Schema.Append(outSchema.Columns...)
		if err != nil {
			t.Fatal(err)
		}
		for _, verb := range []string{"derive", "extend"} {
			want, keep := &Rows{Schema: outSchema}, 0
			if verb == "extend" {
				want.Schema, keep = extSchema, in.Schema.Arity()
			}
			var wantErr error
			for _, row := range in.Data {
				nr, err := refDeriveRow(verb, derivs, row, in.Schema)
				if err != nil {
					wantErr = err
					break
				}
				want.Data = append(want.Data, append(row[:keep:keep], nr...))
			}
			got, err := Derive(in, derivs...)
			if verb == "extend" {
				got, err = Extend(in, derivs...)
			}
			if e := sameOutcome(got, err, want, wantErr); e != nil {
				t.Fatalf("%s: %s: %v", label, verb, e)
			}
		}
		bound := BindDerive(derivs, in.Schema)
		for i, row := range in.Data {
			got, err := bound(row)
			want, wantErr := refDeriveRow("derive", derivs, row, in.Schema)
			if wantErr != nil {
				failed++
			}
			if e := sameOutcome(&Rows{Schema: outSchema, Data: []Row{got}}, err, &Rows{Schema: outSchema, Data: []Row{want}}, wantErr); e != nil {
				t.Fatalf("%s: BindDerive on row %d %v: %v", label, i, row, e)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no row failed a derivation: the harness tests no error path")
	}
}
