package relstore

import (
	"cmp"
	"fmt"
	"strings"
)

// Pred is a boolean condition over a row. Like Expr it is structured so
// plans can be rendered to SQL and inspected by analysts.
type Pred interface {
	Eval(r Row, s *Schema) (bool, error)
	SQL() string
}

// evalPred treats a nil predicate as TRUE.
func evalPred(p Pred, r Row, s *Schema) (bool, error) {
	if p == nil {
		return true, nil
	}
	return p.Eval(r, s)
}

// rowTest is a predicate bound to one schema: it tests one row.
type rowTest func(Row) (bool, error)

// bindPred binds p to s once per scan, so no row pays a column-name lookup:
// every row gets exactly the answer and the error evalPred(p, row, s)
// gives. A comparison between a column and a literal, and an IS NULL or IN
// over a column, read the cell at its resolved position; AND, OR and NOT
// combine their bound operands in Eval's row-at-a-time short-circuit order;
// every other shape, an unknown column included, falls back to p.Eval, so
// an error arises exactly where Eval raises it.
func bindPred(p Pred, s *Schema) rowTest {
	switch q := p.(type) {
	case nil:
		return func(Row) (bool, error) { return true, nil }
	case AndPred:
		ts := bindPreds(q.Ps, s)
		return func(r Row) (bool, error) {
			for _, t := range ts {
				if ok, err := t(r); err != nil || !ok {
					return false, err
				}
			}
			return true, nil
		}
	case OrPred:
		ts := bindPreds(q.Ps, s)
		return func(r Row) (bool, error) {
			for _, t := range ts {
				if ok, err := t(r); err != nil || ok {
					return err == nil, err
				}
			}
			return false, nil
		}
	case NotPred:
		t := bindPred(q.P, s)
		return func(r Row) (bool, error) {
			ok, err := t(r)
			return !ok, err
		}
	case NullPred:
		if ci, ok := colPos(q.E, s); ok {
			neg := q.Negate
			return func(r Row) (bool, error) { return r[ci].IsNull() != neg, nil }
		}
	case InPred:
		if ci, ok := colPos(q.E, s); ok {
			list := q.List
			return func(r Row) (bool, error) {
				for _, v := range list {
					if r[ci].Equal(v) {
						return true, nil
					}
				}
				return false, nil
			}
		}
	case CmpPred:
		op := q.Op
		if ci, ok := colPos(q.L, s); ok {
			if lit, ok := q.R.(LitExpr); ok {
				return bindCmp(op, ci, lit.V)
			}
		} else if lit, ok := q.L.(LitExpr); ok {
			if ci, ok := colPos(q.R, s); ok {
				return func(r Row) (bool, error) { return compareValues(op, lit.V, r[ci]) }
			}
		}
	}
	return func(r Row) (bool, error) { return p.Eval(r, s) }
}

// bindCmp binds "column ci op lit". An INTEGER or TEXT literal decides a
// cell of its own kind, or a NULL cell (only <> holds), inline; every other
// pair goes through compareValues.
func bindCmp(op CmpOp, ci int, lit Value) rowTest {
	general := func(r Row) (bool, error) { return compareValues(op, r[ci], lit) }
	if op > CmpGe {
		return general
	}
	// holds[c+1] is op's verdict on a three-way comparison result c.
	var holds [3]bool
	for c := -1; c <= 1; c++ {
		holds[c+1], _ = compareValues(op, Int(int64(c)), Int(0))
	}
	switch lit.kind {
	case KindInt:
		y := lit.i
		return func(r Row) (bool, error) {
			switch v := &r[ci]; v.kind {
			case KindInt:
				return holds[cmp.Compare(v.i, y)+1], nil
			case KindNull:
				return op == CmpNe, nil
			}
			return general(r)
		}
	case KindString:
		y := lit.s
		return func(r Row) (bool, error) {
			switch v := &r[ci]; v.kind {
			case KindString:
				if op == CmpEq {
					return v.s == y, nil
				}
				return holds[strings.Compare(v.s, y)+1], nil
			case KindNull:
				return op == CmpNe, nil
			}
			return general(r)
		}
	}
	return general
}

func bindPreds(ps []Pred, s *Schema) []rowTest {
	ts := make([]rowTest, len(ps))
	for i, p := range ps {
		ts[i] = bindPred(p, s)
	}
	return ts
}

// colPos resolves e to a position in s when e references a column of s.
func colPos(e Expr, s *Schema) (int, bool) {
	c, ok := e.(ColRef)
	if !ok {
		return 0, false
	}
	i := s.Index(c.Name)
	return i, i >= 0
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators supported in classifier guards.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?"
	}
}

// CmpPred compares two scalar expressions. Comparison with NULL on either
// side yields false (SQL three-valued logic collapsed to false), except
// equality where NULL = NULL holds; classifier semantics need to match
// "Unselected" sentinel values exactly.
type CmpPred struct {
	Op   CmpOp
	L, R Expr
}

// Cmp builds a comparison predicate.
func Cmp(op CmpOp, l, r Expr) CmpPred { return CmpPred{Op: op, L: l, R: r} }

// Eq builds an equality predicate between a column and a literal.
func Eq(col string, v Value) CmpPred { return Cmp(CmpEq, Col(col), Lit(v)) }

// Eval implements Pred.
func (c CmpPred) Eval(r Row, s *Schema) (bool, error) {
	lv, err := c.L.Eval(r, s)
	if err != nil {
		return false, err
	}
	rv, err := c.R.Eval(r, s)
	if err != nil {
		return false, err
	}
	return compareValues(c.Op, lv, rv)
}

// compareValues applies op to two evaluated operands with CmpPred's
// semantics.
func compareValues(op CmpOp, lv, rv Value) (bool, error) {
	switch op {
	case CmpEq:
		return lv.Equal(rv), nil
	case CmpNe:
		return !lv.Equal(rv), nil
	}
	if lv.IsNull() || rv.IsNull() {
		return false, nil
	}
	if lv.Kind() != rv.Kind() && !(lv.IsNumeric() && rv.IsNumeric()) {
		return false, fmt.Errorf("relstore: ordered comparison between %s and %s", lv.Kind(), rv.Kind())
	}
	cmp := lv.Compare(rv)
	switch op {
	case CmpLt:
		return cmp < 0, nil
	case CmpLe:
		return cmp <= 0, nil
	case CmpGt:
		return cmp > 0, nil
	case CmpGe:
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("relstore: unknown comparison op %d", op)
}

// SQL implements Pred.
func (c CmpPred) SQL() string {
	return c.L.SQL() + " " + c.Op.String() + " " + c.R.SQL()
}

// AndPred is a conjunction. Empty conjunctions are TRUE.
type AndPred struct{ Ps []Pred }

// And conjoins predicates, flattening nested Ands and dropping nils.
func And(ps ...Pred) Pred {
	flat := make([]Pred, 0, len(ps))
	for _, p := range ps {
		switch q := p.(type) {
		case nil:
		case AndPred:
			flat = append(flat, q.Ps...)
		default:
			if p != nil {
				flat = append(flat, p)
			}
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return AndPred{Ps: flat}
}

// Eval implements Pred.
func (a AndPred) Eval(r Row, s *Schema) (bool, error) {
	for _, p := range a.Ps {
		ok, err := p.Eval(r, s)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// SQL implements Pred.
func (a AndPred) SQL() string {
	if len(a.Ps) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(a.Ps))
	for i, p := range a.Ps {
		parts[i] = p.SQL()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// OrPred is a disjunction. Empty disjunctions are FALSE.
type OrPred struct{ Ps []Pred }

// Or disjoins predicates, flattening nested Ors.
func Or(ps ...Pred) Pred {
	flat := make([]Pred, 0, len(ps))
	for _, p := range ps {
		switch q := p.(type) {
		case nil:
		case OrPred:
			flat = append(flat, q.Ps...)
		default:
			if p != nil {
				flat = append(flat, p)
			}
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return OrPred{Ps: flat}
}

// Eval implements Pred.
func (o OrPred) Eval(r Row, s *Schema) (bool, error) {
	for _, p := range o.Ps {
		ok, err := p.Eval(r, s)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// SQL implements Pred.
func (o OrPred) SQL() string {
	if len(o.Ps) == 0 {
		return "FALSE"
	}
	parts := make([]string, len(o.Ps))
	for i, p := range o.Ps {
		parts[i] = p.SQL()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// NotPred negates a predicate.
type NotPred struct{ P Pred }

// Not negates a predicate.
func Not(p Pred) NotPred { return NotPred{P: p} }

// Eval implements Pred.
func (n NotPred) Eval(r Row, s *Schema) (bool, error) {
	ok, err := n.P.Eval(r, s)
	return !ok, err
}

// SQL implements Pred.
func (n NotPred) SQL() string { return "NOT (" + n.P.SQL() + ")" }

// NullPred tests an expression for NULL (or NOT NULL when Negate is set).
type NullPred struct {
	E      Expr
	Negate bool
}

// IsNull builds an IS NULL predicate.
func IsNull(e Expr) NullPred { return NullPred{E: e} }

// IsNotNull builds an IS NOT NULL predicate.
func IsNotNull(e Expr) NullPred { return NullPred{E: e, Negate: true} }

// Eval implements Pred.
func (p NullPred) Eval(r Row, s *Schema) (bool, error) {
	v, err := p.E.Eval(r, s)
	if err != nil {
		return false, err
	}
	if p.Negate {
		return !v.IsNull(), nil
	}
	return v.IsNull(), nil
}

// SQL implements Pred.
func (p NullPred) SQL() string {
	if p.Negate {
		return p.E.SQL() + " IS NOT NULL"
	}
	return p.E.SQL() + " IS NULL"
}

// InPred tests membership of an expression in a literal list.
type InPred struct {
	E    Expr
	List []Value
}

// In builds an IN-list predicate.
func In(e Expr, vs ...Value) InPred { return InPred{E: e, List: vs} }

// Eval implements Pred.
func (p InPred) Eval(r Row, s *Schema) (bool, error) {
	v, err := p.E.Eval(r, s)
	if err != nil {
		return false, err
	}
	for _, c := range p.List {
		if v.Equal(c) {
			return true, nil
		}
	}
	return false, nil
}

// SQL implements Pred.
func (p InPred) SQL() string {
	parts := make([]string, len(p.List))
	for i, v := range p.List {
		parts[i] = v.String()
	}
	return p.E.SQL() + " IN (" + strings.Join(parts, ", ") + ")"
}

// BoolLit is a constant predicate.
type BoolLit struct{ V bool }

// True is the always-true predicate; False the always-false one.
var (
	True  = BoolLit{V: true}
	False = BoolLit{V: false}
)

// Eval implements Pred.
func (b BoolLit) Eval(Row, *Schema) (bool, error) { return b.V, nil }

// SQL implements Pred.
func (b BoolLit) SQL() string {
	if b.V {
		return "TRUE"
	}
	return "FALSE"
}

// PredExpr adapts a predicate to a boolean scalar expression yielding
// TRUE/FALSE.
type PredExpr struct{ P Pred }

// Eval implements Expr.
func (pe PredExpr) Eval(r Row, s *Schema) (Value, error) {
	ok, err := evalPred(pe.P, r, s)
	if err != nil {
		return Null(), err
	}
	return Bool(ok), nil
}

// SQL implements Expr.
func (pe PredExpr) SQL() string { return "(" + pe.P.SQL() + ")" }

// ExprPred adapts a scalar expression to a predicate via truthiness; it lets
// classifier guards reference boolean g-tree nodes directly, as in
// "SurgeryPerformed = TRUE" or bare "SurgeryPerformed".
type ExprPred struct{ E Expr }

// Truth adapts an expression to a predicate.
func Truth(e Expr) ExprPred { return ExprPred{E: e} }

// Eval implements Pred.
func (p ExprPred) Eval(r Row, s *Schema) (bool, error) {
	v, err := p.E.Eval(r, s)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

// SQL implements Pred.
func (p ExprPred) SQL() string { return p.E.SQL() }
