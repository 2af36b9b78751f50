package relstore

import (
	"strings"
	"testing"
)

// call builds a scalar function application.
func call(name string, args ...Expr) FuncExpr {
	return FuncExpr{Name: strings.ToUpper(name), Args: args}
}

var exprSchema = MustSchema(
	Column{Name: "X", Type: KindInt},
	Column{Name: "Y", Type: KindFloat},
	Column{Name: "S", Type: KindString},
	Column{Name: "B", Type: KindBool},
)

func evalExpr(t *testing.T, e Expr, r Row) Value {
	t.Helper()
	v, err := e.Eval(r, exprSchema)
	if err != nil {
		t.Fatalf("eval %s: %v", e.SQL(), err)
	}
	return v
}

func TestColAndLit(t *testing.T) {
	r := Row{Int(4), Float(2.5), Str("hi"), Bool(true)}
	if v := evalExpr(t, Col("X"), r); !v.Equal(Int(4)) {
		t.Errorf("Col(X) = %v", v)
	}
	if v := evalExpr(t, Lit(Str("k")), r); !v.Equal(Str("k")) {
		t.Errorf("Lit = %v", v)
	}
	if _, err := Col("nope").Eval(r, exprSchema); err == nil {
		t.Error("unknown column must error")
	}
}

func TestArithmetic(t *testing.T) {
	r := Row{Int(7), Float(2), Str("ab"), Bool(false)}
	cases := []struct {
		e    Expr
		want Value
	}{
		{Arith(OpAdd, Col("X"), Lit(Int(3))), Int(10)},
		{Arith(OpSub, Col("X"), Lit(Int(3))), Int(4)},
		{Arith(OpMul, Col("X"), Lit(Int(2))), Int(14)},
		{Arith(OpDiv, Lit(Int(8)), Lit(Int(2))), Int(4)},
		{Arith(OpDiv, Lit(Int(7)), Lit(Int(2))), Float(3.5)},
		{Arith(OpMod, Lit(Int(7)), Lit(Int(2))), Int(1)},
		{Arith(OpAdd, Col("X"), Col("Y")), Float(9)},
		{Arith(OpMul, Col("Y"), Lit(Float(0.52))), Float(1.04)},
		{Arith(OpAdd, Col("S"), Lit(Str("c"))), Str("abc")},
		{Neg(Col("X")), Int(-7)},
		{Neg(Col("Y")), Float(-2)},
	}
	for _, c := range cases {
		got := evalExpr(t, c.e, r)
		if !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.e.SQL(), got, c.want)
		}
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	r := Row{Null(), Float(2), Str("ab"), Bool(false)}
	v := evalExpr(t, Arith(OpAdd, Col("X"), Lit(Int(3))), r)
	if !v.IsNull() {
		t.Errorf("NULL + 3 = %v, want NULL", v)
	}
}

func TestArithmeticErrors(t *testing.T) {
	r := Row{Int(1), Float(2), Str("ab"), Bool(false)}
	bad := []Expr{
		Arith(OpDiv, Col("X"), Lit(Int(0))),
		Arith(OpMod, Col("X"), Lit(Int(0))),
		Arith(OpMul, Col("S"), Lit(Int(2))),
		Arith(OpDiv, Col("Y"), Lit(Float(0))),
		Neg(Col("S")),
	}
	for _, e := range bad {
		if _, err := e.Eval(r, exprSchema); err == nil {
			t.Errorf("%s: expected error", e.SQL())
		}
	}
}

func TestCaseExpr(t *testing.T) {
	// The Habits(Cancer) classifier shape from Figure 5.
	packs := Col("Y")
	habits := CaseExpr{
		Branches: []CaseBranch{
			{When: Cmp(CmpEq, packs, Lit(Int(0))), Then: Lit(Str("None"))},
			{When: Cmp(CmpLt, packs, Lit(Int(2))), Then: Lit(Str("Light"))},
			{When: Cmp(CmpLt, packs, Lit(Int(5))), Then: Lit(Str("Moderate"))},
			{When: Cmp(CmpGe, packs, Lit(Int(5))), Then: Lit(Str("Heavy"))},
		},
	}
	cases := []struct {
		packs float64
		want  string
	}{
		{0, "None"}, {0.5, "Light"}, {1.9, "Light"}, {2, "Moderate"}, {4.9, "Moderate"}, {5, "Heavy"}, {12, "Heavy"},
	}
	for _, c := range cases {
		r := Row{Int(0), Float(c.packs), Str(""), Bool(false)}
		got := evalExpr(t, habits, r)
		if !got.Equal(Str(c.want)) {
			t.Errorf("habits(%v) = %v, want %s", c.packs, got, c.want)
		}
	}
	// No matching branch, no else -> NULL.
	empty := CaseExpr{Branches: []CaseBranch{{When: False, Then: Lit(Int(1))}}}
	r := Row{Int(0), Float(0), Str(""), Bool(false)}
	if v := evalExpr(t, empty, r); !v.IsNull() {
		t.Errorf("unmatched CASE = %v, want NULL", v)
	}
	withElse := CaseExpr{Branches: empty.Branches, Else: Lit(Str("fallback"))}
	if v := evalExpr(t, withElse, r); !v.Equal(Str("fallback")) {
		t.Errorf("ELSE = %v", v)
	}
	if sql := habits.SQL(); !strings.HasPrefix(sql, "CASE WHEN") || !strings.HasSuffix(sql, "END") {
		t.Errorf("CASE SQL = %q", sql)
	}
}

func TestFuncs(t *testing.T) {
	r := Row{Int(-4), Float(2.6), Str("  MiXeD "), Bool(true)}
	cases := []struct {
		e    Expr
		want Value
	}{
		{call("ABS", Col("X")), Int(4)},
		{call("ABS", Lit(Float(-2.5))), Float(2.5)},
		{call("ROUND", Col("Y")), Float(3)},
		{call("LENGTH", Lit(Str("abc"))), Int(3)},
		{call("LOWER", call("TRIM", Col("S"))), Str("mixed")},
		{call("UPPER", call("TRIM", Col("S"))), Str("MIXED")},
		{call("COALESCE", Lit(Null()), Col("X"), Lit(Int(9))), Int(-4)},
		{call("COALESCE", Lit(Null()), Lit(Null())), Null()},
	}
	for _, c := range cases {
		got := evalExpr(t, c.e, r)
		if c.want.IsNull() {
			if !got.IsNull() {
				t.Errorf("%s = %v, want NULL", c.e.SQL(), got)
			}
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.e.SQL(), got, c.want)
		}
	}
	if _, err := call("NOPE", Col("X")).Eval(r, exprSchema); err == nil {
		t.Error("unknown function must error")
	}
	if _, err := call("ABS").Eval(r, exprSchema); err == nil {
		t.Error("wrong arity must error")
	}
	if _, err := call("ABS", Col("S")).Eval(r, exprSchema); err == nil {
		t.Error("ABS of string must error")
	}
}

func TestExprSQLRendering(t *testing.T) {
	e := Arith(OpMul, Arith(OpMul, Col("TumorX"), Col("TumorY")), Lit(Float(0.52)))
	want := "((TumorX * TumorY) * 0.52)"
	if got := e.SQL(); got != want {
		t.Errorf("SQL = %q, want %q", got, want)
	}
}
