package relstore

import (
	"fmt"
	"math"
	"strings"
)

// Expr is a scalar expression over a row. Expressions are structured (not
// closures) so that compiled plans can be rendered back to SQL text, the way
// the paper renders classifier artifacts to XQuery for inspection.
type Expr interface {
	// Eval computes the expression over a row positioned by schema.
	Eval(r Row, s *Schema) (Value, error)
	// SQL renders the expression as SQL text.
	SQL() string
}

// ColRef references a column by name.
type ColRef struct{ Name string }

// Col returns a column-reference expression.
func Col(name string) ColRef { return ColRef{Name: name} }

// Eval implements Expr.
func (c ColRef) Eval(r Row, s *Schema) (Value, error) {
	i := s.Index(c.Name)
	if i < 0 {
		return Null(), fmt.Errorf("relstore: unknown column %q in (%s)", c.Name, s.NameList())
	}
	return r[i], nil
}

// SQL implements Expr.
func (c ColRef) SQL() string { return c.Name }

// LitExpr is a constant value.
type LitExpr struct{ V Value }

// Lit returns a literal expression.
func Lit(v Value) LitExpr { return LitExpr{V: v} }

// Eval implements Expr.
func (l LitExpr) Eval(Row, *Schema) (Value, error) { return l.V, nil }

// SQL implements Expr.
func (l LitExpr) SQL() string { return l.V.String() }

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators supported by the classifier language's "A" clauses.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return "?"
	}
}

// ArithExpr applies an arithmetic operator to two numeric subexpressions.
// If either side is NULL the result is NULL (SQL semantics). Adding two
// strings concatenates them.
type ArithExpr struct {
	Op   ArithOp
	L, R Expr
}

// Arith builds an arithmetic expression.
func Arith(op ArithOp, l, r Expr) ArithExpr { return ArithExpr{Op: op, L: l, R: r} }

// Eval implements Expr.
func (a ArithExpr) Eval(r Row, s *Schema) (Value, error) {
	lv, err := a.L.Eval(r, s)
	if err != nil {
		return Null(), err
	}
	rv, err := a.R.Eval(r, s)
	if err != nil {
		return Null(), err
	}
	if lv.IsNull() || rv.IsNull() {
		return Null(), nil
	}
	if a.Op == OpAdd && lv.Kind() == KindString && rv.Kind() == KindString {
		return Str(lv.AsString() + rv.AsString()), nil
	}
	if !lv.IsNumeric() || !rv.IsNumeric() {
		return Null(), fmt.Errorf("relstore: %s applied to non-numeric operands %s, %s", a.Op, lv, rv)
	}
	// Integer arithmetic stays integral; any float operand widens.
	if lv.Kind() == KindInt && rv.Kind() == KindInt {
		x, y := lv.AsInt(), rv.AsInt()
		switch a.Op {
		case OpAdd:
			return Int(x + y), nil
		case OpSub:
			return Int(x - y), nil
		case OpMul:
			return Int(x * y), nil
		case OpDiv:
			if y == 0 {
				return Null(), fmt.Errorf("relstore: division by zero")
			}
			if x%y == 0 {
				return Int(x / y), nil
			}
			return Float(float64(x) / float64(y)), nil
		case OpMod:
			if y == 0 {
				return Null(), fmt.Errorf("relstore: modulo by zero")
			}
			return Int(x % y), nil
		}
	}
	x, y := lv.AsFloat(), rv.AsFloat()
	switch a.Op {
	case OpAdd:
		return Float(x + y), nil
	case OpSub:
		return Float(x - y), nil
	case OpMul:
		return Float(x * y), nil
	case OpDiv:
		if y == 0 {
			return Null(), fmt.Errorf("relstore: division by zero")
		}
		return Float(x / y), nil
	case OpMod:
		if y == 0 {
			return Null(), fmt.Errorf("relstore: modulo by zero")
		}
		return Float(math.Mod(x, y)), nil
	}
	return Null(), fmt.Errorf("relstore: unknown arithmetic op %d", a.Op)
}

// SQL implements Expr.
func (a ArithExpr) SQL() string {
	return "(" + a.L.SQL() + " " + a.Op.String() + " " + a.R.SQL() + ")"
}

// NegExpr negates a numeric subexpression.
type NegExpr struct{ E Expr }

// Neg builds a unary-minus expression.
func Neg(e Expr) NegExpr { return NegExpr{E: e} }

// Eval implements Expr.
func (n NegExpr) Eval(r Row, s *Schema) (Value, error) {
	v, err := n.E.Eval(r, s)
	if err != nil || v.IsNull() {
		return Null(), err
	}
	switch v.Kind() {
	case KindInt:
		return Int(-v.AsInt()), nil
	case KindFloat:
		return Float(-v.AsFloat()), nil
	default:
		return Null(), fmt.Errorf("relstore: cannot negate %s", v)
	}
}

// SQL implements Expr.
func (n NegExpr) SQL() string { return "(-" + n.E.SQL() + ")" }

// CaseExpr is a searched CASE: the first branch whose predicate holds yields
// its result; otherwise Else (NULL when nil). MultiClass classifiers compile
// to exactly this shape: each rule "value ← guard" is one branch.
type CaseExpr struct {
	Branches []CaseBranch
	Else     Expr
}

// CaseBranch is one WHEN/THEN pair.
type CaseBranch struct {
	When Pred
	Then Expr
}

// Eval implements Expr.
func (c CaseExpr) Eval(r Row, s *Schema) (Value, error) {
	for _, b := range c.Branches {
		ok, err := evalPred(b.When, r, s)
		if err != nil {
			return Null(), err
		}
		if ok {
			return b.Then.Eval(r, s)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(r, s)
	}
	return Null(), nil
}

// SQL implements Expr.
func (c CaseExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, b := range c.Branches {
		sb.WriteString(" WHEN ")
		sb.WriteString(b.When.SQL())
		sb.WriteString(" THEN ")
		sb.WriteString(b.Then.SQL())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE ")
		sb.WriteString(c.Else.SQL())
	}
	sb.WriteString(" END")
	return sb.String()
}

// FuncExpr applies a named scalar function. The engine supports the small
// set needed by classifiers and patterns: ABS, LENGTH, LOWER, UPPER, TRIM,
// ROUND, COALESCE.
type FuncExpr struct {
	Name string
	Args []Expr
}

// Eval implements Expr.
func (f FuncExpr) Eval(r Row, s *Schema) (Value, error) {
	vals := make([]Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(r, s)
		if err != nil {
			return Null(), err
		}
		vals[i] = v
	}
	arity := func(n int) error {
		if len(vals) != n {
			return fmt.Errorf("relstore: %s expects %d args, got %d", f.Name, n, len(vals))
		}
		return nil
	}
	switch f.Name {
	case "ABS":
		if err := arity(1); err != nil {
			return Null(), err
		}
		v := vals[0]
		if v.IsNull() {
			return Null(), nil
		}
		switch v.Kind() {
		case KindInt:
			if v.AsInt() < 0 {
				return Int(-v.AsInt()), nil
			}
			return v, nil
		case KindFloat:
			return Float(math.Abs(v.AsFloat())), nil
		}
		return Null(), fmt.Errorf("relstore: ABS of non-numeric %s", v)
	case "LENGTH":
		if err := arity(1); err != nil {
			return Null(), err
		}
		if vals[0].IsNull() {
			return Null(), nil
		}
		return Int(int64(len(vals[0].Display()))), nil
	case "LOWER":
		if err := arity(1); err != nil {
			return Null(), err
		}
		if vals[0].IsNull() {
			return Null(), nil
		}
		return Str(strings.ToLower(vals[0].Display())), nil
	case "UPPER":
		if err := arity(1); err != nil {
			return Null(), err
		}
		if vals[0].IsNull() {
			return Null(), nil
		}
		return Str(strings.ToUpper(vals[0].Display())), nil
	case "TRIM":
		if err := arity(1); err != nil {
			return Null(), err
		}
		if vals[0].IsNull() {
			return Null(), nil
		}
		return Str(strings.TrimSpace(vals[0].Display())), nil
	case "ROUND":
		if err := arity(1); err != nil {
			return Null(), err
		}
		if vals[0].IsNull() {
			return Null(), nil
		}
		if !vals[0].IsNumeric() {
			return Null(), fmt.Errorf("relstore: ROUND of non-numeric %s", vals[0])
		}
		return Float(math.Round(vals[0].AsFloat())), nil
	case "COALESCE":
		for _, v := range vals {
			if !v.IsNull() {
				return v, nil
			}
		}
		return Null(), nil
	default:
		return Null(), fmt.Errorf("relstore: unknown function %s", f.Name)
	}
}

// SQL implements Expr.
func (f FuncExpr) SQL() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.SQL()
	}
	return f.Name + "(" + strings.Join(args, ", ") + ")"
}
