package patterns

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"guava/internal/relstore"
)

// scanFilters names the allStacks stacks whose layout evaluates any
// rewritten predicate at the physical scan (Naive, Merge, Partitioned over
// Naive). The others fetch by key and reconstruct first, so only a key-only
// predicate is exact at their scan.
var scanFilters = map[string]bool{
	"naive": true, "merge": true, "part": true, "audit": true, "rename": true,
	"encode": true, "sentinel": true, "lookup": true, "delim": true, "deepnaive": true,
}

// pushdownPreds enumerates predicates spanning the rewrite cases. keyOnly
// marks a predicate over the key column alone. noPush lists the stacks that
// must fall back anyway: a transform declines the predicate, or an Audit
// liveness conjunct keeps a layout that fetches by key from evaluating all
// of it.
func pushdownPreds() []struct {
	name    string
	pred    relstore.Pred
	keyOnly bool
	noPush  map[string]bool
} {
	none := map[string]bool{}
	packed := map[string]bool{"delim": true}
	audited := map[string]bool{"vendor": true, "legacy": true, "deep": true, "sparseaudit": true}
	return []struct {
		name    string
		pred    relstore.Pred
		keyOnly bool
		noPush  map[string]bool
	}{
		{"eq-string", relstore.Eq("Smoking", relstore.Str("Current")), false, packed},
		{"eq-bool", relstore.Eq("Hypoxia", relstore.Bool(true)), false, none},
		{"truth-bool", relstore.Truth(relstore.Col("Hypoxia")), false, none},
		{"ordered-float", relstore.Cmp(relstore.CmpGt, relstore.Col("PacksPerDay"), relstore.Lit(relstore.Float(1))), false, none},
		{"ordered-mirrored", relstore.Cmp(relstore.CmpLe, relstore.Lit(relstore.Int(50)), relstore.Col("Age")), false, none},
		{"is-null", relstore.IsNull(relstore.Col("Smoking")), false, packed},
		{"is-not-null", relstore.IsNotNull(relstore.Col("PacksPerDay")), false, none},
		{"eq-null", relstore.Eq("Alcohol", relstore.Null()), false, packed},
		{"in-list", relstore.In(relstore.Col("Smoking"), relstore.Str("Current"), relstore.Str("Previous")), false, packed},
		{"conjunction", relstore.And(
			relstore.Eq("Smoking", relstore.Str("Current")),
			relstore.Cmp(relstore.CmpGe, relstore.Col("Age"), relstore.Lit(relstore.Int(40))),
		), false, packed},
		{"disjunction", relstore.Or(
			relstore.Eq("Hypoxia", relstore.Bool(true)),
			relstore.IsNull(relstore.Col("Smoking")),
		), false, packed},
		{"negation", relstore.Not(relstore.Eq("Smoking", relstore.Str("None"))), false, packed},
		{"unseen-label", relstore.Eq("Smoking", relstore.Str("NeverWritten")), false, packed},
		{"key-eq", relstore.Eq("ProcedureID", relstore.Int(2)), true, audited},
		{"key-in", relstore.In(relstore.Col("ProcedureID"), relstore.Int(2), relstore.Int(4), relstore.Int(9)), true, audited},
	}
}

// TestPushdownEquivalence: for every stack and every predicate shape, the
// pushed-down query returns exactly what the fallback (materialize-then-
// filter) path returns, and PushedDown holds exactly where the layout
// evaluated the predicate at the scan and no transform declined it.
func TestPushdownEquivalence(t *testing.T) {
	form, rows := testForm(t)
	for name, stack := range allStacks(t) {
		db := relstore.NewDB("contrib")
		if err := stack.Install(db, form); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range rows {
			if err := stack.WriteRow(db, form, r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for _, pc := range pushdownPreds() {
			got, err := stack.QueryWithInfo(db, form, pc.pred, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, pc.name, err)
			}
			want, err := stack.QueryNoPushdown(db, form, pc.pred, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, pc.name, err)
			}
			if !got.Rows.EqualUnordered(want) {
				t.Errorf("%s/%s: pushdown result differs\npushed:\n%s\nfallback:\n%s",
					name, pc.name, got.Rows.Format(), want.Format())
			}
			wantPush := !pc.noPush[name] && (pc.keyOnly || scanFilters[name])
			if got.PushedDown != wantPush {
				t.Errorf("%s/%s: PushedDown = %v, want %v", name, pc.name, got.PushedDown, wantPush)
			}
		}
	}
}

// TestPushdownFallsBackOnPackedColumns: predicates touching Delimited's
// packed columns must fall back, not fail.
func TestPushdownFallsBackOnPackedColumns(t *testing.T) {
	form, rows := testForm(t)
	stack := NewStack(Naive{}, &Delimited{Into: "packed", Columns: []string{"Smoking", "Alcohol"}})
	db := relstore.NewDB("x")
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	res, err := stack.QueryWithInfo(db, form, relstore.Eq("Smoking", relstore.Str("Current")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PushedDown {
		t.Error("packed-column predicate must not push down")
	}
	if res.Rows.Len() != 2 {
		t.Errorf("rows = %d, want 2", res.Rows.Len())
	}
	// Age is not packed: pushes down.
	res, err = stack.QueryWithInfo(db, form, relstore.Cmp(relstore.CmpGt, relstore.Col("Age"), relstore.Lit(relstore.Int(60))), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PushedDown {
		t.Error("non-packed predicate must push down")
	}
}

// TestPushdownGenericFallsBack: the EAV layout fetches only by key, so a
// non-key predicate falls back; queries still work.
func TestPushdownGenericFallsBack(t *testing.T) {
	form, rows := testForm(t)
	stack := NewStack(Generic{}, &Audit{})
	db := relstore.NewDB("x")
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	res, err := stack.QueryWithInfo(db, form, relstore.Eq("Smoking", relstore.Str("Current")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PushedDown {
		t.Error("Generic layout cannot push down")
	}
	if res.Rows.Len() != 2 {
		t.Errorf("rows = %d", res.Rows.Len())
	}
}

// TestPushdownSentinelOrderedGuard is the trap the Sentinel rewrite must not
// fall into: the sentinel (-9999) satisfies "PacksPerDay < 2" physically but
// represents NULL, which must not match.
func TestPushdownSentinelOrderedGuard(t *testing.T) {
	form, rows := testForm(t)
	stack := NewStack(Naive{}, &Sentinel{})
	db := relstore.NewDB("x")
	if err := stack.Install(db, form); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := stack.WriteRow(db, form, r); err != nil {
			t.Fatal(err)
		}
	}
	res, err := stack.QueryWithInfo(db, form,
		relstore.Cmp(relstore.CmpLt, relstore.Col("PacksPerDay"), relstore.Lit(relstore.Float(2))), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PushedDown {
		t.Fatal("expected pushdown")
	}
	// Rows 2 (packs 0) and 4 (packs 1.5) match; row 3 (NULL) must not.
	if res.Rows.Len() != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", res.Rows.Len(), res.Rows.Format())
	}
	for _, r := range res.Rows.Data {
		if r[0].Equal(relstore.Int(3)) {
			t.Error("NULL row matched ordered comparison via sentinel")
		}
	}
}

// TestPushdownPropertyRandom: quick-check that pushdown ≡ fallback over
// random data and random simple predicates, across three stacks.
func TestPushdownPropertyRandom(t *testing.T) {
	form, _ := testForm(t)
	stacks := []*Stack{
		NewStack(Naive{}, &Sentinel{}),
		NewStack(Naive{}, &Lookup{Columns: []string{"Smoking"}}),
		NewStack(Naive{}, &Audit{}, &Encode{}),
	}
	statuses := []string{"Current", "None", "Previous"}
	f := func(keys []uint8, packs []int8, smoke []uint8, threshold int8, pickStatus uint8) bool {
		db := relstore.NewDB("prop")
		stack := stacks[int(pickStatus)%len(stacks)]
		if err := stack.Install(db, form); err != nil {
			return false
		}
		seen := map[uint8]bool{}
		for i, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			var p relstore.Value
			if i < len(packs) && packs[i] >= 0 {
				p = relstore.Float(float64(packs[i]))
			} else {
				p = relstore.Null()
			}
			var sm relstore.Value
			if i < len(smoke) && smoke[i]%4 != 3 {
				sm = relstore.Str(statuses[int(smoke[i])%3])
			} else {
				sm = relstore.Null()
			}
			row := relstore.Row{relstore.Int(int64(k)), sm, p, relstore.Bool(i%2 == 0), relstore.Null(), relstore.Int(int64(i))}
			if err := stack.WriteRow(db, form, row); err != nil {
				return false
			}
		}
		pred := relstore.Or(
			relstore.And(
				relstore.Eq("Smoking", relstore.Str(statuses[int(pickStatus)%3])),
				relstore.Cmp(relstore.CmpGe, relstore.Col("PacksPerDay"), relstore.Lit(relstore.Int(int64(threshold)))),
			),
			relstore.IsNull(relstore.Col("Smoking")),
		)
		got, err := stack.QueryWithInfo(db, form, pred, nil)
		if err != nil {
			return false
		}
		want, err := stack.QueryNoPushdown(db, form, pred, nil)
		if err != nil {
			return false
		}
		return got.Rows.EqualUnordered(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestKeyScopedReadEqualsRestrictedFullRead: on every stack, a key-scoped
// ReadDiverting returns the full read restricted to the keys, as a
// multiset, whatever the key set holds — present and absent keys,
// duplicates, a NULL, keys deprecated through Audit, or nothing at all.
// White-box, the key scope rewrites through every transform and reaches the
// layout as a key conjunct, so no keyed read degrades to a full scan.
func TestKeyScopedReadEqualsRestrictedFullRead(t *testing.T) {
	form, rows := testForm(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(14))
	for name, stack := range allStacks(t) {
		db := relstore.NewDB("contrib")
		if err := stack.Install(db, form); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range rows {
			if err := stack.WriteRow(db, form, r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		keySets := [][]relstore.Value{
			{},
			{relstore.Null()},
			{relstore.Int(1), relstore.Int(1), relstore.Int(9)},
			{relstore.Int(3), relstore.Null(), relstore.Int(5)},
		}
		for _, tr := range stack.Transforms {
			if _, ok := tr.(*Audit); ok {
				for _, k := range []int64{2, 4} {
					if _, err := stack.Deprecate(db, form, relstore.Int(k)); err != nil {
						t.Fatalf("%s: deprecate %d: %v", name, k, err)
					}
				}
				keySets = append(keySets, []relstore.Value{relstore.Int(2), relstore.Int(4), relstore.Int(5)})
			}
		}
		for i := 0; i < 12; i++ {
			keys := []relstore.Value{}
			for n := rng.Intn(6); n > 0; n-- {
				k := relstore.Int(int64(rng.Intn(8)))
				if rng.Intn(8) == 0 {
					k = relstore.Null()
				}
				keys = append(keys, k)
			}
			keySets = append(keySets, keys)
		}

		full, misses, err := stack.ReadDiverting(ctx, db, form, nil)
		if err != nil || len(misses) > 0 {
			t.Fatalf("%s: full read: %v, misses %v", name, err, misses)
		}
		ki := full.Schema.Index(form.KeyColumn)
		for _, keys := range keySets {
			got, misses, err := stack.ReadDiverting(ctx, db, form, keys)
			if err != nil || len(misses) > 0 {
				t.Fatalf("%s: keys %v: %v, misses %v", name, keys, err, misses)
			}
			in := map[string]bool{}
			for _, k := range keys {
				if !k.IsNull() {
					in[k.Key()] = true
				}
			}
			want := &relstore.Rows{Schema: full.Schema}
			for _, r := range full.Data {
				if in[r[ki].Key()] {
					want.Data = append(want.Data, r)
				}
			}
			if !got.EqualUnordered(want) {
				t.Errorf("%s: keys %v:\n%s\nwant:\n%s", name, keys, got.Format(), want.Format())
			}
		}

		infos, err := stack.adaptAll(form)
		if err != nil {
			t.Fatal(err)
		}
		inner, ok := stack.rewriteInward(db, infos, relstore.In(relstore.Col(form.KeyColumn), relstore.Int(1), relstore.Int(4)))
		if !ok {
			t.Errorf("%s: a key scope must rewrite through every transform", name)
			continue
		}
		if keyed, _ := KeyConjuncts(infos[len(infos)-1], inner); keyed == nil {
			t.Errorf("%s: no key conjunct reaches the layout in %s", name, inner.SQL())
		}
	}
}

// TestPredColumns covers the column-collection helper.
func TestPredColumns(t *testing.T) {
	p := relstore.And(
		relstore.Eq("A", relstore.Int(1)),
		relstore.Or(
			relstore.IsNull(relstore.Col("B")),
			relstore.Truth(relstore.Col("C")),
		),
		relstore.Cmp(relstore.CmpLt, relstore.Arith(relstore.OpAdd, relstore.Col("D"), relstore.Col("A")), relstore.Lit(relstore.Int(9))),
	)
	got := relstore.PredColumns(p)
	want := []string{"A", "B", "C", "D"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("PredColumns = %v, want %v", got, want)
	}
}
