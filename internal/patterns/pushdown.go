package patterns

import (
	"context"

	"guava/internal/relstore"
)

// Predicate pushdown: translating a g-tree query's WHERE clause, or a
// read's key scope, through the pattern stack so filtering happens at the
// physical scan instead of after view reconstruction — the paper's "we can
// translate queries specified against the g-tree into predefined SQL
// queries … that depend on the database patterns used". Every rewrite here
// is conservative: a transform that cannot translate a predicate exactly
// reports !ok and the layout reads unfiltered. The layout's Read then
// evaluates what it can of the rewritten predicate — Naive, Merge and
// Partitioned over them all of it, the layouts that fetch by key its key
// conjuncts (KeyConjuncts) — and the stack re-applies the predicate to the
// decoded view either way (always correct, just slower on fallback).

// PredRewriter is implemented by transforms that can translate an
// outer-schema predicate into the inner schema.
type PredRewriter interface {
	RewritePred(db *relstore.DB, outer, inner FormInfo, p relstore.Pred) (relstore.Pred, bool)
}

// QueryResult carries a query's rows plus how it was executed, for Explain
// output and the pushdown ablation benchmarks.
type QueryResult struct {
	Rows *relstore.Rows
	// PushedDown reports whether the predicate was evaluated at the
	// physical scan: every transform rewrote it and the layout read it
	// exactly.
	PushedDown bool
}

// QueryWithInfo filters the naive relation with pred and projects the named
// columns (all columns when cols is nil) — the translation of a g-tree
// query through the pattern stack — reporting whether pred was pushed down.
// It fails on the first source miss.
func (s *Stack) QueryWithInfo(db *relstore.DB, form FormInfo, pred relstore.Pred, cols []string) (QueryResult, error) {
	rows, misses, pushed, err := s.readThrough(context.TODO(), db, form, pred)
	if rows, err = strict(rows, misses, err); err != nil {
		return QueryResult{}, err
	}
	if cols != nil {
		rows, err = relstore.Project(rows, cols...)
		if err != nil {
			return QueryResult{}, err
		}
	}
	return QueryResult{Rows: rows, PushedDown: pushed}, nil
}

// rewriteInward pushes a predicate through every transform, outermost first.
func (s *Stack) rewriteInward(db *relstore.DB, infos []FormInfo, pred relstore.Pred) (relstore.Pred, bool) {
	cur := pred
	for i, t := range s.Transforms {
		pr, ok := t.(PredRewriter)
		if !ok {
			return nil, false
		}
		next, ok := pr.RewritePred(db, infos[i], infos[i+1], cur)
		if !ok {
			return nil, false
		}
		cur = next
	}
	return cur, true
}

// --- Transform-side predicate rewrites ---

// RewritePred implements PredRewriter for Audit: the inner schema is a
// superset of the outer one, so predicates pass through; Decode still strips
// deprecated rows afterwards. Conjoining the liveness filter here lets the
// physical scan skip dead rows too.
func (a *Audit) RewritePred(_ *relstore.DB, _, _ FormInfo, p relstore.Pred) (relstore.Pred, bool) {
	return relstore.And(relstore.Eq(a.column(), relstore.Int(0)), p), true
}

// RewritePred implements PredRewriter for Rename: column references map to
// their physical names.
func (r *Rename) RewritePred(_ *relstore.DB, _, _ FormInfo, p relstore.Pred) (relstore.Pred, bool) {
	return relstore.RewritePredWith(p, func(e relstore.Expr) (relstore.Expr, bool) {
		if c, ok := e.(relstore.ColRef); ok {
			return relstore.Col(r.physical(c.Name)), true
		}
		return e, true
	})
}

// exprIsCol returns the column name when the expression is a bare reference.
func exprIsCol(e relstore.Expr) (string, bool) {
	c, ok := e.(relstore.ColRef)
	return c.Name, ok
}

// exprIsLit returns the literal value when the expression is a constant.
func exprIsLit(e relstore.Expr) (relstore.Value, bool) {
	l, ok := e.(relstore.LitExpr)
	return l.V, ok
}

// RewritePred implements PredRewriter for Encode: comparisons and truth
// tests on boolean columns translate to their coded strings; any other use
// of a boolean column aborts the pushdown.
func (e *Encode) RewritePred(_ *relstore.DB, outer, _ FormInfo, p relstore.Pred) (relstore.Pred, bool) {
	isBool := func(name string) bool {
		c, err := outer.Schema.Col(name)
		return err == nil && c.Type == relstore.KindBool
	}
	return relstore.MapPredNodes(p, func(node relstore.Pred) (relstore.Pred, bool) {
		switch x := node.(type) {
		case relstore.AndPred, relstore.OrPred, relstore.NotPred, relstore.BoolLit:
			// Composites arrive with already-rewritten children.
			return node, true
		case relstore.CmpPred:
			lc, lIsCol := exprIsCol(x.L)
			rv, rIsLit := exprIsLit(x.R)
			if lIsCol && rIsLit && isBool(lc) {
				if x.Op != relstore.CmpEq && x.Op != relstore.CmpNe {
					return nil, false
				}
				if rv.IsNull() {
					return x, true // NULL compares unchanged
				}
				if rv.Kind() != relstore.KindBool {
					return nil, false
				}
				return relstore.Cmp(x.Op, x.L, relstore.Lit(e.encodeValue(rv))), true
			}
			rc, rIsCol := exprIsCol(x.R)
			lv, lIsLit := exprIsLit(x.L)
			if rIsCol && lIsLit && isBool(rc) {
				if x.Op != relstore.CmpEq && x.Op != relstore.CmpNe {
					return nil, false
				}
				if lv.IsNull() {
					return x, true
				}
				if lv.Kind() != relstore.KindBool {
					return nil, false
				}
				return relstore.Cmp(x.Op, relstore.Lit(e.encodeValue(lv)), x.R), true
			}
			// Comparisons not touching boolean columns pass through.
			for _, col := range relstore.PredColumns(x) {
				if isBool(col) {
					return nil, false
				}
			}
			return x, true
		case relstore.ExprPred:
			if name, ok := exprIsCol(x.E); ok && isBool(name) {
				tc, _ := e.codes()
				return relstore.Eq(name, relstore.Str(tc)), true
			}
			for _, col := range relstore.PredColumns(x) {
				if isBool(col) {
					return nil, false
				}
			}
			return x, true
		case relstore.NullPred:
			return x, true // NULL-ness is unchanged by encoding
		case relstore.InPred:
			if name, ok := exprIsCol(x.E); ok && isBool(name) {
				list := make([]relstore.Value, len(x.List))
				for i, v := range x.List {
					if v.Kind() != relstore.KindBool {
						return nil, false
					}
					list[i] = e.encodeValue(v)
				}
				return relstore.In(x.E, list...), true
			}
			return x, true
		default:
			// And/Or/Not handled by MapPredNodes; literals pass.
			for _, col := range relstore.PredColumns(node) {
				if isBool(col) {
					return nil, false
				}
			}
			return node, true
		}
	})
}

// RewritePred implements PredRewriter for Sentinel. NULL tests become
// sentinel comparisons; ordered comparisons gain a "not the sentinel" guard
// (the sentinel is numerically small and would otherwise match); boolean
// columns translate to their 0/1 integers.
func (s *Sentinel) RewritePred(_ *relstore.DB, outer, _ FormInfo, p relstore.Pred) (relstore.Pred, bool) {
	colType := func(name string) (relstore.Kind, bool) {
		c, err := outer.Schema.Col(name)
		if err != nil {
			return 0, false
		}
		return c.Type, true
	}
	sentinelFor := func(t relstore.Kind) relstore.Value {
		switch t {
		case relstore.KindInt, relstore.KindBool:
			return relstore.Int(s.intCode())
		case relstore.KindFloat:
			return relstore.Float(s.floatCode())
		case relstore.KindString:
			return relstore.Str(s.stringCode())
		default:
			return relstore.Null()
		}
	}
	guard := func(name string, t relstore.Kind, inner relstore.Pred) relstore.Pred {
		if name == outer.KeyColumn {
			return inner // keys are never NULL, never sentinel
		}
		return relstore.And(relstore.Cmp(relstore.CmpNe, relstore.Col(name), relstore.Lit(sentinelFor(t))), inner)
	}
	rewriteCmp := func(x relstore.CmpPred, col string, lit relstore.Value, colOnLeft bool) (relstore.Pred, bool) {
		t, ok := colType(col)
		if !ok {
			return nil, false
		}
		if lit.IsNull() {
			// col = NULL ⇒ col = sentinel; col <> NULL ⇒ col <> sentinel.
			switch x.Op {
			case relstore.CmpEq:
				return relstore.Eq(col, sentinelFor(t)), true
			case relstore.CmpNe:
				return relstore.Cmp(relstore.CmpNe, relstore.Col(col), relstore.Lit(sentinelFor(t))), true
			default:
				// Ordered comparison with NULL is constant false.
				return relstore.False, true
			}
		}
		if t == relstore.KindBool {
			if lit.Kind() != relstore.KindBool || (x.Op != relstore.CmpEq && x.Op != relstore.CmpNe) {
				return nil, false
			}
			v := relstore.Int(0)
			if lit.AsBool() {
				v = relstore.Int(1)
			}
			return relstore.Cmp(x.Op, relstore.Col(col), relstore.Lit(v)), true
		}
		var np relstore.Pred
		if colOnLeft {
			np = relstore.Cmp(x.Op, relstore.Col(col), relstore.Lit(lit))
		} else {
			np = relstore.Cmp(x.Op, relstore.Lit(lit), relstore.Col(col))
		}
		switch x.Op {
		case relstore.CmpEq:
			return np, true // a live value never equals the sentinel
		default:
			return guard(col, t, np), true
		}
	}
	return relstore.MapPredNodes(p, func(node relstore.Pred) (relstore.Pred, bool) {
		switch x := node.(type) {
		case relstore.BoolLit:
			return x, true
		case relstore.CmpPred:
			if col, ok := exprIsCol(x.L); ok {
				if lit, ok := exprIsLit(x.R); ok {
					return rewriteCmp(x, col, lit, true)
				}
			}
			if col, ok := exprIsCol(x.R); ok {
				if lit, ok := exprIsLit(x.L); ok {
					return rewriteCmp(x, col, lit, false)
				}
			}
			return nil, false
		case relstore.NullPred:
			col, ok := exprIsCol(x.E)
			if !ok {
				return nil, false
			}
			t, ok := colType(col)
			if !ok {
				return nil, false
			}
			if x.Negate {
				return relstore.Cmp(relstore.CmpNe, relstore.Col(col), relstore.Lit(sentinelFor(t))), true
			}
			return relstore.Eq(col, sentinelFor(t)), true
		case relstore.InPred:
			col, ok := exprIsCol(x.E)
			if !ok {
				return nil, false
			}
			t, ok := colType(col)
			if !ok || t == relstore.KindBool {
				return nil, false
			}
			for _, v := range x.List {
				if v.IsNull() {
					return nil, false
				}
			}
			return guard(col, t, x), true
		case relstore.ExprPred:
			col, ok := exprIsCol(x.E)
			if !ok {
				return nil, false
			}
			if t, _ := colType(col); t == relstore.KindBool {
				return relstore.Eq(col, relstore.Int(1)), true
			}
			return nil, false
		default:
			return node, true
		}
	})
}

// RewritePred implements PredRewriter for Lookup: equality and IN over coded
// columns translate to their dimension-table codes (an unseen label can
// match nothing, so it folds to FALSE); ordered string comparisons abort.
func (l *Lookup) RewritePred(db *relstore.DB, outer, _ FormInfo, p relstore.Pred) (relstore.Pred, bool) {
	coded, err := l.applies(outer)
	if err != nil {
		return nil, false
	}
	lookupCode := func(col, label string) (relstore.Value, bool) {
		t, err := db.Table(lookupTable(outer, col))
		if err != nil {
			return relstore.Null(), false
		}
		rows, err := t.Lookup("Label", relstore.Str(label))
		if err != nil {
			return relstore.Null(), false
		}
		if len(rows) == 0 {
			return relstore.Null(), true // no such label anywhere
		}
		return rows[0][0], true
	}
	return relstore.MapPredNodes(p, func(node relstore.Pred) (relstore.Pred, bool) {
		switch x := node.(type) {
		case relstore.AndPred, relstore.OrPred, relstore.NotPred, relstore.BoolLit:
			// Composites arrive with already-rewritten children.
			return node, true
		case relstore.CmpPred:
			col, lok := exprIsCol(x.L)
			lit, rok := exprIsLit(x.R)
			if !lok || !rok {
				// Try the mirrored orientation.
				if c2, ok := exprIsCol(x.R); ok {
					if v2, ok := exprIsLit(x.L); ok {
						col, lit, lok, rok = c2, v2, true, true
					}
				}
			}
			if lok && rok && coded[col] {
				if lit.IsNull() {
					return x, true // NULL comparisons unchanged (codes keep NULL)
				}
				if x.Op != relstore.CmpEq && x.Op != relstore.CmpNe {
					return nil, false // ordered comparisons over codes lie
				}
				code, ok := lookupCode(col, lit.Display())
				if !ok {
					return nil, false
				}
				if code.IsNull() {
					// Label never written: = matches nothing, <> matches all
					// non-NULLs.
					if x.Op == relstore.CmpEq {
						return relstore.False, true
					}
					return relstore.Pred(relstore.True), true
				}
				return relstore.Cmp(x.Op, relstore.Col(col), relstore.Lit(code)), true
			}
			// Untouched columns pass through.
			for _, c := range relstore.PredColumns(x) {
				if coded[c] {
					return nil, false
				}
			}
			return x, true
		case relstore.NullPred:
			return x, true
		case relstore.InPred:
			col, ok := exprIsCol(x.E)
			if !ok || !coded[col] {
				for _, c := range relstore.PredColumns(x) {
					if coded[c] {
						return nil, false
					}
				}
				return x, true
			}
			var list []relstore.Value
			for _, v := range x.List {
				code, ok := lookupCode(col, v.Display())
				if !ok {
					return nil, false
				}
				if !code.IsNull() {
					list = append(list, code)
				}
			}
			if len(list) == 0 {
				return relstore.False, true
			}
			return relstore.In(x.E, list...), true
		default:
			for _, c := range relstore.PredColumns(node) {
				if coded[c] {
					return nil, false
				}
			}
			return node, true
		}
	})
}

// RewritePred implements PredRewriter for Delimited: predicates that avoid
// the packed columns pass through; anything touching them aborts.
func (d *Delimited) RewritePred(_ *relstore.DB, _, _ FormInfo, p relstore.Pred) (relstore.Pred, bool) {
	packed := map[string]bool{}
	for _, c := range d.Columns {
		packed[c] = true
	}
	for _, col := range relstore.PredColumns(p) {
		if packed[col] {
			return nil, false
		}
	}
	return p, true
}
