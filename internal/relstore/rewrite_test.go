package relstore

import (
	"strings"
	"testing"
)

// renamer maps column A->X, leaving others untouched.
func renamer(e Expr) (Expr, bool) {
	if c, ok := e.(ColRef); ok && c.Name == "zz" {
		return Col("qq"), true
	}
	return e, true
}

// aborter fails on any column reference.
func aborter(e Expr) (Expr, bool) {
	if _, ok := e.(ColRef); ok {
		return nil, false
	}
	return e, true
}

func TestRewriteExprCoversAllShapes(t *testing.T) {
	exprs := []Expr{
		Col("zz"),
		Lit(Int(1)),
		Neg(Col("zz")),
		Arith(OpAdd, Col("zz"), Lit(Int(2))),
		call("ABS", Col("zz")),
		PredExpr{P: Eq("zz", Int(3))},
		CaseExpr{
			Branches: []CaseBranch{{When: Eq("zz", Int(1)), Then: Col("zz")}},
			Else:     Arith(OpMul, Col("zz"), Lit(Int(2))),
		},
	}
	for _, e := range exprs {
		out, ok := rewriteExpr(e, renamer)
		if !ok {
			t.Fatalf("%s: rewrite aborted", e.SQL())
		}
		if strings.Contains(out.SQL(), "zz") && !strings.Contains(out.SQL(), "ABS") && !strings.Contains(out.SQL(), "CASE") {
			t.Errorf("%s: A not renamed: %s", e.SQL(), out.SQL())
		}
		if strings.Contains(e.SQL(), "zz") {
			if _, ok := rewriteExpr(e, aborter); ok {
				t.Errorf("%s: aborter must abort", e.SQL())
			}
		}
	}
	// CASE rewrite renames inside WHEN, THEN, and ELSE.
	ce := exprs[6]
	out, _ := rewriteExpr(ce, renamer)
	sql := out.SQL()
	if strings.Count(sql, "qq") != 3 {
		t.Errorf("CASE rewrite: %s", sql)
	}
}

func TestRewritePredWithCoversAllShapes(t *testing.T) {
	preds := []Pred{
		Eq("zz", Int(1)),
		And(Eq("zz", Int(1)), Eq("B", Int(2))),
		Or(Eq("zz", Int(1)), Eq("B", Int(2))),
		Not(Eq("zz", Int(1))),
		IsNull(Col("zz")),
		IsNotNull(Col("zz")),
		In(Col("zz"), Int(1), Int(2)),
		Truth(Col("zz")),
		True,
	}
	for _, p := range preds {
		out, ok := RewritePredWith(p, renamer)
		if !ok {
			t.Fatalf("%s: rewrite aborted", p.SQL())
		}
		if strings.Contains(p.SQL(), "zz") && strings.Contains(out.SQL(), "zz") {
			t.Errorf("%s: A survived: %s", p.SQL(), out.SQL())
		}
		if strings.Contains(p.SQL(), "zz") {
			if _, ok := RewritePredWith(p, aborter); ok {
				t.Errorf("%s: aborter must abort", p.SQL())
			}
		}
	}
	// nil predicate passes through.
	if out, ok := RewritePredWith(nil, renamer); !ok || out != nil {
		t.Error("nil predicate must survive")
	}
}

func TestMapPredNodesStructure(t *testing.T) {
	// Replace every comparison leaf with TRUE; composites keep shape.
	p := And(
		Or(Eq("zz", Int(1)), Not(Eq("B", Int(2)))),
		Eq("C", Int(3)),
	)
	out, ok := MapPredNodes(p, func(n Pred) (Pred, bool) {
		if _, isCmp := n.(CmpPred); isCmp {
			return True, true
		}
		return n, true
	})
	if !ok {
		t.Fatal("rewrite aborted")
	}
	r := Row{}
	s := MustSchema()
	v, err := out.Eval(r, s)
	if err != nil || !v {
		t.Errorf("all-TRUE pred = %v, %v", v, err)
	}
	// Aborting from inside a Not propagates.
	if _, ok := MapPredNodes(Not(Eq("zz", Int(1))), func(n Pred) (Pred, bool) {
		if _, isCmp := n.(CmpPred); isCmp {
			return nil, false
		}
		return n, true
	}); ok {
		t.Error("abort inside NOT must propagate")
	}
	// nil passes.
	if out, ok := MapPredNodes(nil, func(n Pred) (Pred, bool) { return n, true }); !ok || out != nil {
		t.Error("nil must pass")
	}
}
