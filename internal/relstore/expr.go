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
	return arith(a.Op, lv, rv)
}

// arith applies op to two evaluated operands: ArithExpr's operator, shared
// by Eval and bindExpr.
func arith(op ArithOp, lv, rv Value) (Value, error) {
	if lv.IsNull() || rv.IsNull() {
		return Null(), nil
	}
	if op == OpAdd && lv.Kind() == KindString && rv.Kind() == KindString {
		return Str(lv.AsString() + rv.AsString()), nil
	}
	if !lv.IsNumeric() || !rv.IsNumeric() {
		return Null(), fmt.Errorf("relstore: %s applied to non-numeric operands %s, %s", op, lv, rv)
	}
	// Integer arithmetic stays integral; any float operand widens.
	if lv.Kind() == KindInt && rv.Kind() == KindInt {
		x, y := lv.AsInt(), rv.AsInt()
		switch op {
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
	switch op {
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
	return Null(), fmt.Errorf("relstore: unknown arithmetic op %d", op)
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
	if err != nil {
		return Null(), err
	}
	return negate(v)
}

// negate is NegExpr's operator, shared by Eval and bindExpr.
func negate(v Value) (Value, error) {
	switch v.Kind() {
	case KindNull:
		return Null(), nil
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
	return applyFunc(f.Name, vals)
}

// applyFunc applies the function name to evaluated arguments: FuncExpr's
// operator, shared by Eval and bindExpr. Every function but COALESCE takes
// one argument and maps NULL to NULL.
func applyFunc(name string, vals []Value) (Value, error) {
	switch name {
	case "COALESCE":
		for _, v := range vals {
			if !v.IsNull() {
				return v, nil
			}
		}
		return Null(), nil
	case "ABS", "LENGTH", "LOWER", "UPPER", "TRIM", "ROUND":
	default:
		return Null(), fmt.Errorf("relstore: unknown function %s", name)
	}
	if len(vals) != 1 {
		return Null(), fmt.Errorf("relstore: %s expects 1 args, got %d", name, len(vals))
	}
	v := vals[0]
	switch {
	case v.IsNull():
		return Null(), nil
	case name == "LENGTH":
		return Int(int64(len(v.Display()))), nil
	case name == "LOWER":
		return Str(strings.ToLower(v.Display())), nil
	case name == "UPPER":
		return Str(strings.ToUpper(v.Display())), nil
	case name == "TRIM":
		return Str(strings.TrimSpace(v.Display())), nil
	case !v.IsNumeric():
		return Null(), fmt.Errorf("relstore: %s of non-numeric %s", name, v)
	case name == "ROUND":
		return Float(math.Round(v.AsFloat())), nil
	case v.Kind() == KindFloat: // ABS from here on
		return Float(math.Abs(v.AsFloat())), nil
	case v.AsInt() < 0:
		return Int(-v.AsInt()), nil
	}
	return v, nil
}

// SQL implements Expr.
func (f FuncExpr) SQL() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.SQL()
	}
	return f.Name + "(" + strings.Join(args, ", ") + ")"
}

// rowEval is an expression bound to one schema: it evaluates one row.
type rowEval func(Row) (Value, error)

// bindExpr binds e to s once per call, as bindPred binds a predicate: every
// row gets exactly the value and the error e.Eval(row, s) gives. A column
// reads its resolved position, CASE binds its guards with bindPred, and
// operators bind their operands and share Eval's operator code. Every other
// shape, an unknown column included, falls back to e.Eval, so an error
// arises exactly where Eval raises it.
func bindExpr(e Expr, s *Schema) rowEval {
	switch x := e.(type) {
	case ColRef:
		if ci, ok := colPos(x, s); ok {
			return func(r Row) (Value, error) { return r[ci], nil }
		}
	case LitExpr:
		return func(Row) (Value, error) { return x.V, nil }
	case CaseExpr:
		whens, thens := make([]rowTest, len(x.Branches)), make([]rowEval, len(x.Branches))
		for i, b := range x.Branches {
			whens[i], thens[i] = bindPred(b.When, s), bindExpr(b.Then, s)
		}
		otherwise := bindExpr(LitExpr{}, s) // no ELSE: NULL
		if x.Else != nil {
			otherwise = bindExpr(x.Else, s)
		}
		return func(r Row) (Value, error) {
			for i, when := range whens {
				ok, err := when(r)
				if err != nil {
					return Null(), err
				}
				if ok {
					return thens[i](r)
				}
			}
			return otherwise(r)
		}
	case ArithExpr:
		l, rt := bindExpr(x.L, s), bindExpr(x.R, s)
		return func(r Row) (Value, error) {
			lv, err := l(r)
			if err != nil {
				return Null(), err
			}
			rv, err := rt(r)
			if err != nil {
				return Null(), err
			}
			return arith(x.Op, lv, rv)
		}
	case NegExpr:
		in := bindExpr(x.E, s)
		return func(r Row) (Value, error) {
			v, err := in(r)
			if err != nil {
				return Null(), err
			}
			return negate(v)
		}
	case FuncExpr:
		args := make([]rowEval, len(x.Args))
		for i, a := range x.Args {
			args[i] = bindExpr(a, s)
		}
		return func(r Row) (Value, error) {
			vals := make([]Value, len(args))
			for i, a := range args {
				v, err := a(r)
				if err != nil {
					return Null(), err
				}
				vals[i] = v
			}
			return applyFunc(x.Name, vals)
		}
	}
	return func(r Row) (Value, error) { return e.Eval(r, s) }
}
