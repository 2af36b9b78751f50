package relstore

// Structural rewriting of predicates and expressions: the pattern layer uses
// this to translate a g-tree query's WHERE clause into one over a physical
// layout (renamed columns, encoded literals, sentinel guards), which is the
// paper's "translate a query against the g-tree into one against the
// database".

// ExprRewriter rewrites one expression node; returning ok=false aborts the
// whole rewrite (the caller falls back to evaluating over the decoded view).
type ExprRewriter func(Expr) (Expr, bool)

// rewriteExpr applies fn bottom-up over an expression tree. fn sees each
// node after its children were rewritten.
func rewriteExpr(e Expr, fn ExprRewriter) (Expr, bool) {
	switch x := e.(type) {
	case ColRef, LitExpr:
		return fn(e)
	case NegExpr:
		inner, ok := rewriteExpr(x.E, fn)
		if !ok {
			return nil, false
		}
		return fn(NegExpr{E: inner})
	case ArithExpr:
		l, ok := rewriteExpr(x.L, fn)
		if !ok {
			return nil, false
		}
		r, ok := rewriteExpr(x.R, fn)
		if !ok {
			return nil, false
		}
		return fn(ArithExpr{Op: x.Op, L: l, R: r})
	case FuncExpr:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			na, ok := rewriteExpr(a, fn)
			if !ok {
				return nil, false
			}
			args[i] = na
		}
		return fn(FuncExpr{Name: x.Name, Args: args})
	case PredExpr:
		p, ok := RewritePredWith(x.P, fn)
		if !ok {
			return nil, false
		}
		return fn(PredExpr{P: p})
	case CaseExpr:
		branches := make([]CaseBranch, len(x.Branches))
		for i, b := range x.Branches {
			w, ok := RewritePredWith(b.When, fn)
			if !ok {
				return nil, false
			}
			t, ok := rewriteExpr(b.Then, fn)
			if !ok {
				return nil, false
			}
			branches[i] = CaseBranch{When: w, Then: t}
		}
		var els Expr
		if x.Else != nil {
			var ok bool
			els, ok = rewriteExpr(x.Else, fn)
			if !ok {
				return nil, false
			}
		}
		return fn(CaseExpr{Branches: branches, Else: els})
	default:
		return nil, false
	}
}

// RewritePredWith applies an expression rewriter inside a predicate tree,
// preserving predicate structure.
func RewritePredWith(p Pred, fn ExprRewriter) (Pred, bool) {
	switch x := p.(type) {
	case nil:
		return nil, true
	case BoolLit:
		return x, true
	case CmpPred:
		l, ok := rewriteExpr(x.L, fn)
		if !ok {
			return nil, false
		}
		r, ok := rewriteExpr(x.R, fn)
		if !ok {
			return nil, false
		}
		return CmpPred{Op: x.Op, L: l, R: r}, true
	case AndPred:
		ps := make([]Pred, len(x.Ps))
		for i, sub := range x.Ps {
			np, ok := RewritePredWith(sub, fn)
			if !ok {
				return nil, false
			}
			ps[i] = np
		}
		return AndPred{Ps: ps}, true
	case OrPred:
		ps := make([]Pred, len(x.Ps))
		for i, sub := range x.Ps {
			np, ok := RewritePredWith(sub, fn)
			if !ok {
				return nil, false
			}
			ps[i] = np
		}
		return OrPred{Ps: ps}, true
	case NotPred:
		inner, ok := RewritePredWith(x.P, fn)
		if !ok {
			return nil, false
		}
		return NotPred{P: inner}, true
	case NullPred:
		e, ok := rewriteExpr(x.E, fn)
		if !ok {
			return nil, false
		}
		return NullPred{E: e, Negate: x.Negate}, true
	case InPred:
		e, ok := rewriteExpr(x.E, fn)
		if !ok {
			return nil, false
		}
		return InPred{E: e, List: x.List}, true
	case ExprPred:
		e, ok := rewriteExpr(x.E, fn)
		if !ok {
			return nil, false
		}
		return ExprPred{E: e}, true
	default:
		return nil, false
	}
}

// RewritePred is a higher-level rewriter: fn sees whole predicate nodes
// bottom-up and may replace them structurally (e.g. turn IsNull(col) into
// col = sentinel). Returning ok=false aborts.
type PredRewriter func(Pred) (Pred, bool)

// MapPredNodes applies fn to every predicate node bottom-up.
func MapPredNodes(p Pred, fn PredRewriter) (Pred, bool) {
	switch x := p.(type) {
	case nil:
		return nil, true
	case AndPred:
		ps := make([]Pred, len(x.Ps))
		for i, sub := range x.Ps {
			np, ok := MapPredNodes(sub, fn)
			if !ok {
				return nil, false
			}
			ps[i] = np
		}
		return fn(AndPred{Ps: ps})
	case OrPred:
		ps := make([]Pred, len(x.Ps))
		for i, sub := range x.Ps {
			np, ok := MapPredNodes(sub, fn)
			if !ok {
				return nil, false
			}
			ps[i] = np
		}
		return fn(OrPred{Ps: ps})
	case NotPred:
		inner, ok := MapPredNodes(x.P, fn)
		if !ok {
			return nil, false
		}
		return fn(NotPred{P: inner})
	default:
		return fn(p)
	}
}

// PredColumns collects the distinct column names a predicate references, in
// first-appearance order.
func PredColumns(p Pred) []string {
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	var walkExpr func(Expr)
	var walkPred func(Pred)
	walkExpr = func(e Expr) {
		switch x := e.(type) {
		case ColRef:
			add(x.Name)
		case NegExpr:
			walkExpr(x.E)
		case ArithExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case FuncExpr:
			for _, a := range x.Args {
				walkExpr(a)
			}
		case PredExpr:
			walkPred(x.P)
		case CaseExpr:
			for _, b := range x.Branches {
				walkPred(b.When)
				walkExpr(b.Then)
			}
			if x.Else != nil {
				walkExpr(x.Else)
			}
		}
	}
	walkPred = func(p Pred) {
		switch x := p.(type) {
		case nil, BoolLit:
		case CmpPred:
			walkExpr(x.L)
			walkExpr(x.R)
		case AndPred:
			for _, sub := range x.Ps {
				walkPred(sub)
			}
		case OrPred:
			for _, sub := range x.Ps {
				walkPred(sub)
			}
		case NotPred:
			walkPred(x.P)
		case NullPred:
			walkExpr(x.E)
		case InPred:
			walkExpr(x.E)
		case ExprPred:
			walkExpr(x.E)
		}
	}
	walkPred(p)
	return out
}
