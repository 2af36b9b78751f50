package relstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The operator equivalence harness: every operator must produce output
// identical — same rows, same order, same value kinds, same error — to a
// row-at-a-time reference, over seeded randomized relations covering NULLs,
// kind exceptions (ints stored in REAL columns), huge int64s beyond float64
// precision, unknown columns and empty inputs. Every predicate scan — the
// Select operator, Table.SelectPage on its scan and index-probe paths,
// Table.Delete and Table.Update — is held to one reference, refSelect.

// strictValEq is stricter than Value.Equal: kinds must match exactly, so an
// Int(2) that came back as Float(2) fails.
func strictValEq(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case KindNull:
		return true
	case KindInt:
		return a.AsInt() == b.AsInt()
	case KindFloat:
		return a.AsFloat() == b.AsFloat()
	case KindString:
		return a.AsString() == b.AsString()
	default:
		return a.AsBool() == b.AsBool()
	}
}

func strictRowsEq(got, want *Rows) error {
	if !got.Schema.Equal(want.Schema) {
		return fmt.Errorf("schema (%s) != (%s)", got.Schema.NameList(), want.Schema.NameList())
	}
	if len(got.Data) != len(want.Data) {
		return fmt.Errorf("%d rows, want %d", len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if len(got.Data[i]) != len(want.Data[i]) {
			return fmt.Errorf("row %d arity %d != %d", i, len(got.Data[i]), len(want.Data[i]))
		}
		for c := range got.Data[i] {
			if !strictValEq(got.Data[i][c], want.Data[i][c]) {
				return fmt.Errorf("row %d col %d: %v != %v", i, c, got.Data[i][c], want.Data[i][c])
			}
		}
	}
	return nil
}

func propSchema() *Schema {
	return MustSchema(
		Column{Name: "ID", Type: KindInt, NotNull: true},
		Column{Name: "K", Type: KindString},
		Column{Name: "N", Type: KindInt},
		Column{Name: "X", Type: KindFloat},
		Column{Name: "B", Type: KindBool},
	)
}

// randRelation builds a random relation over propSchema: ~quarter NULLs in
// nullable columns, string keys from a small alphabet (to force join and
// group collisions), int64s that occasionally exceed 2^53 (to catch any
// float64 round-trip in a kernel), and REAL cells that sometimes hold Int
// values — the kind-exception path Schema.Validate permits.
func randRelation(r *rand.Rand, n int) *Rows {
	data := make([]Row, n)
	for i := range data {
		row := Row{Int(int64(i)), Null(), Null(), Null(), Null()}
		if r.Intn(4) > 0 {
			row[1] = Str(string(rune('a' + r.Intn(5))))
		}
		if r.Intn(4) > 0 {
			if r.Intn(5) == 0 {
				row[2] = Int((int64(1) << 60) + int64(r.Intn(3)))
			} else {
				row[2] = Int(int64(r.Intn(20) - 10))
			}
		}
		if r.Intn(4) > 0 {
			if r.Intn(3) == 0 {
				row[3] = Int(int64(r.Intn(10))) // exception: Int in REAL column
			} else {
				row[3] = Float(float64(r.Intn(100)) / 4)
			}
		}
		if r.Intn(4) > 0 {
			row[4] = Bool(r.Intn(2) == 0)
		}
		data[i] = row
	}
	return &Rows{Schema: propSchema(), Data: data}
}

// randPred builds a random predicate tree over propSchema's columns. An
// operand of AND, OR or NOT is sometimes an IS NULL or IN over an unknown
// column, which fails exactly on the rows that reach it, and a leaf is
// sometimes a comparison no row satisfies, which keeps its siblings from
// being reached.
func randPred(r *rand.Rand, depth int) Pred {
	if depth > 0 && r.Intn(2) == 0 {
		sub := func() Pred {
			switch r.Intn(12) {
			case 0:
				return IsNull(Col("nope"))
			case 1:
				return In(Col("nope"), Int(1), Str("a"))
			}
			return randPred(r, depth-1)
		}
		switch r.Intn(3) {
		case 0:
			return And(sub(), sub())
		case 1:
			return Or(sub(), sub())
		default:
			return Not(sub())
		}
	}
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	switch r.Intn(8) {
	case 0:
		return Cmp(ops[r.Intn(len(ops))], Col("K"), Lit(Str(string(rune('a'+r.Intn(5))))))
	case 7:
		// No row has a negative ID: what an AND puts behind this is never
		// reached, and what an OR puts behind its negation neither.
		return Cmp(CmpLt, Col("ID"), Lit(Int(0)))
	case 1:
		return Cmp(ops[r.Intn(len(ops))], Col("N"), Lit(Int(int64(r.Intn(20)-10))))
	case 2:
		// Cross-kind numeric: int column vs float literal and vice versa.
		if r.Intn(2) == 0 {
			return Cmp(ops[r.Intn(len(ops))], Col("N"), Lit(Float(float64(r.Intn(20)-10)+0.5)))
		}
		return Cmp(ops[r.Intn(len(ops))], Col("X"), Lit(Int(int64(r.Intn(10)))))
	case 3:
		if r.Intn(2) == 0 {
			return IsNull(Col("X"))
		}
		return IsNotNull(Col("K"))
	case 4:
		return In(Col("K"), Str("a"), Str("c"), Null())
	case 5:
		return Eq("B", Bool(r.Intn(2) == 0))
	default:
		// Huge-int literals: equality and order must compare exactly, not
		// through float64, against the 2^60+{0,1,2} cells randRelation plants.
		return Cmp(ops[r.Intn(len(ops))], Col("N"), Lit(Int((int64(1)<<60)+int64(r.Intn(3)))))
	}
}

// refScan is the row-at-a-time reference every predicate scan must match:
// the rows pred holds on in input order, up to the first row pred fails on,
// and that error.
func refScan(in *Rows, pred Pred) ([]Row, error) {
	var out []Row
	for _, r := range in.Data {
		ok, err := evalPred(pred, r, in.Schema)
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// refSelect is refScan's outcome as a Select returns it.
func refSelect(in *Rows, pred Pred) (*Rows, error) {
	out, err := refScan(in, pred)
	if err != nil {
		return nil, err
	}
	return &Rows{Schema: in.Schema, Data: out}, nil
}

// refHolds is every row pred holds on without error, in input order.
func refHolds(in *Rows, pred Pred) *Rows {
	out := &Rows{Schema: in.Schema}
	for _, r := range in.Data {
		if ok, err := evalPred(pred, r, in.Schema); ok && err == nil {
			out.Data = append(out.Data, r)
		}
	}
	return out
}

// expected is the outcome a predicate scan over in must have: refSelect's
// rows or its error. An index probe (probed) tests only its candidates, a
// superset of the matches, so it may skip every row pred fails on; when it
// reports no error, it must return exactly the rows pred holds on.
func expected(in *Rows, pred Pred, probed bool, gotErr error) (*Rows, error) {
	want, err := refSelect(in, pred)
	if err != nil && probed && gotErr == nil {
		return refHolds(in, pred), nil
	}
	return want, err
}

// sameOutcome compares a scan's rows and error with the expected ones:
// the same error text, or no error and the same rows.
func sameOutcome(got *Rows, err error, want *Rows, wantErr error) error {
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			return fmt.Errorf("error %v, want %v", err, wantErr)
		}
		return nil
	}
	if err != nil {
		return err
	}
	return strictRowsEq(got, want)
}

// probes reports whether tb answers pred through an index probe.
func probes(tb *Table, pred Pred) bool {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	_, ok := tb.probeLocked(pred)
	return ok
}

// checkEverywhere holds every predicate scan of pred over in to refSelect:
// the Select operator; Table.SelectPage, whole and one short page, on a
// table with no index (always the scan path) and on one indexed on K and N
// (the probe path whenever pred has an indexable conjunct); Table.Delete on
// clones of both, which must remove exactly the matches or, on error,
// nothing; and Table.Update on clones of both, the indexed one ordered on
// K, which must be all or nothing (see checkUpdate).
func checkEverywhere(t *testing.T, label string, in *Rows, pred Pred) {
	t.Helper()
	want, refErr := refSelect(in, pred)
	got, err := Select(in, pred)
	if e := sameOutcome(got, err, want, refErr); e != nil {
		t.Fatalf("%s: Select: %v", label, e)
	}
	plain, indexed := NewTable("T", in.Schema), NewTable("T", in.Schema)
	for _, col := range []string{"K", "N"} {
		if err := indexed.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range []*Table{plain, indexed} {
		if err := tb.InsertAll(in.Data); err != nil {
			t.Fatal(err)
		}
		probed := probes(tb, pred)
		path := map[bool]string{false: "scan", true: "probe"}[probed]

		page, total, err := tb.SelectPage(pred, 1, 2)
		want, wantErr := expected(in, pred, probed, err)
		if wantErr == nil && err == nil {
			if total != want.Len() {
				t.Fatalf("%s: SelectPage (%s): total %d, want %d", label, path, total, want.Len())
			}
			lo := min(1, total)
			want = &Rows{Schema: want.Schema, Data: want.Data[lo : lo+min(2, total-lo)]}
		}
		if e := sameOutcome(page, err, want, wantErr); e != nil {
			t.Fatalf("%s: SelectPage (%s) %s: %v", label, path, pred.SQL(), e)
		}
		all, err := tb.Select(pred)
		want, wantErr = expected(in, pred, probed, err)
		if e := sameOutcome(all, err, want, wantErr); e != nil {
			t.Fatalf("%s: Table.Select (%s) %s: %v", label, path, pred.SQL(), e)
		}

		c := tb.Clone()
		n, err := c.Delete(pred)
		want, wantErr = expected(in, pred, probed, err)
		rest := in
		if wantErr == nil {
			rest = &Rows{Schema: in.Schema}
			for _, r := range in.Data {
				if ok, err := evalPred(pred, r, in.Schema); !ok || err != nil {
					rest.Data = append(rest.Data, r)
				}
			}
			if n != want.Len() {
				t.Fatalf("%s: Delete (%s) %s removed %d rows, want %d", label, path, pred.SQL(), n, want.Len())
			}
		}
		if e := sameOutcome(c.Rows(), err, rest, wantErr); e != nil {
			t.Fatalf("%s: Delete (%s) %s: %v", label, path, pred.SQL(), e)
		}
		if wantErr != nil {
			if e := strictRowsEq(c.Rows(), in); e != nil {
				t.Fatalf("%s: a failed Delete (%s) changed the table: %v", label, path, e)
			}
		}
	}

	for _, tb := range []*Table{plain, indexed} {
		for _, failAt := range []int{-1, len(in.Data) % 3} {
			c := tb.Clone()
			if tb == indexed {
				if err := c.Order("K"); err != nil {
					t.Fatal(err)
				}
			}
			checkUpdate(t, label, c, pred, failAt)
		}
	}
}

// checkUpdate runs c.Update(pred) with an fn that negates the ID of each
// row it is handed, except that match failAt (< 0: none) gets a NULL ID,
// which the schema refuses. fn must see exactly the matches in storage
// order, up to the row the reference scan or the replacement fails on. A
// successful Update rewrites exactly the matches; a failed one returns 0
// and leaves the rows, the index probes and the ordered prefix exactly as
// they were.
func checkUpdate(t *testing.T, label string, c *Table, pred Pred, failAt int) {
	t.Helper()
	before := c.Rows()
	ordCols, ordLen := slices.Clone(c.ordCols), c.ordLen
	var seen []Row
	n, err := c.Update(pred, func(r Row) Row {
		seen = append(seen, r.Clone())
		if len(seen)-1 == failAt {
			r[0] = Null()
		} else {
			r[0] = Int(-1 - r[0].AsInt())
		}
		return r
	})
	reached, refErr := refScan(before, pred)
	if failAt >= 0 && failAt < len(reached) {
		reached = reached[:failAt+1]
		if err == nil || !strings.HasPrefix(err.Error(), "update T: ") {
			t.Fatalf("%s: Update %s with an invalid replacement: error %v", label, pred.SQL(), err)
		}
	} else if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("%s: Update %s: error %v, want %v", label, pred.SQL(), err, refErr)
	}
	if e := strictRowsEq(&Rows{Schema: before.Schema, Data: seen}, &Rows{Schema: before.Schema, Data: reached}); e != nil {
		t.Fatalf("%s: Update %s handed fn the wrong rows: %v", label, pred.SQL(), e)
	}
	want := before
	if err == nil {
		if n != len(reached) {
			t.Fatalf("%s: Update %s updated %d rows, want %d", label, pred.SQL(), n, len(reached))
		}
		want = &Rows{Schema: before.Schema}
		for _, r := range before.Data {
			if ok, _ := evalPred(pred, r, before.Schema); ok {
				r = append(Row{Int(-1 - r[0].AsInt())}, r[1:]...)
			}
			want.Data = append(want.Data, r)
		}
	} else {
		if n != 0 {
			t.Fatalf("%s: a failed Update %s returned %d, want 0", label, pred.SQL(), n)
		}
		if !slices.Equal(c.ordCols, ordCols) || c.ordLen != ordLen {
			t.Fatalf("%s: a failed Update %s changed the ordered prefix from %v/%d to %v/%d",
				label, pred.SQL(), ordCols, ordLen, c.ordCols, c.ordLen)
		}
	}
	if e := strictRowsEq(c.Rows(), want); e != nil {
		t.Fatalf("%s: Update %s (error %v) left the wrong rows: %v", label, pred.SQL(), err, e)
	}
	for _, col := range []string{"K", "N"} {
		ci := want.Schema.Index(col)
		var probed []Value
		for _, r := range want.Data {
			if slices.ContainsFunc(probed, r[ci].Equal) {
				continue
			}
			probed = append(probed, r[ci])
			var match []Row
			for _, w := range want.Data {
				if w[ci].Equal(r[ci]) {
					match = append(match, w)
				}
			}
			got, _ := c.Lookup(col, r[ci])
			if e := strictRowsEq(&Rows{Schema: want.Schema, Data: got}, &Rows{Schema: want.Schema, Data: match}); e != nil {
				t.Fatalf("%s: after Update %s (error %v), Lookup(%s=%v): %v", label, pred.SQL(), err, col, r[ci], e)
			}
		}
	}
}

func TestColumnarSelectEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		in := randRelation(r, r.Intn(150))
		pred := randPred(r, 3)
		checkEverywhere(t, fmt.Sprintf("trial %d", trial), in, pred)
	}
}

// refJoin is a sequential nested-loop inner join: NULL keys never match,
// output in left order then right order.
func refJoin(left, right *Rows, leftCol, rightCol, prefix string) (*Rows, error) {
	schema, err := joinSchema(left.Schema, right.Schema, prefix)
	if err != nil {
		return nil, err
	}
	li, ri := left.Schema.Index(leftCol), right.Schema.Index(rightCol)
	var out []Row
	for _, lr := range left.Data {
		if lr[li].IsNull() {
			continue
		}
		for _, rr := range right.Data {
			if !rr[ri].IsNull() && lr[li].Key() == rr[ri].Key() {
				nr := append(append(make(Row, 0, schema.Arity()), lr...), rr...)
				out = append(out, nr)
			}
		}
	}
	return &Rows{Schema: schema, Data: out}, nil
}

func refLeftJoin(left, right *Rows, leftCol, rightCol, prefix string) (*Rows, error) {
	inner, err := refJoin(left, right, leftCol, rightCol, prefix)
	if err != nil {
		return nil, err
	}
	li, ri := left.Schema.Index(leftCol), right.Schema.Index(rightCol)
	for _, lr := range left.Data {
		matched := false
		if !lr[li].IsNull() {
			for _, rr := range right.Data {
				if !rr[ri].IsNull() && lr[li].Key() == rr[ri].Key() {
					matched = true
					break
				}
			}
		}
		if !matched {
			nr := append(make(Row, 0, inner.Schema.Arity()), lr...)
			for i := 0; i < right.Schema.Arity(); i++ {
				nr = append(nr, Null())
			}
			inner.Data = append(inner.Data, nr)
		}
	}
	return inner, nil
}

func TestColumnarJoinEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		left := randRelation(r, r.Intn(80))
		right := randRelation(r, r.Intn(60))
		wantJ, err := refJoin(left, right, "K", "K", "r")
		if err != nil {
			t.Fatal(err)
		}
		wantL, err := refLeftJoin(left, right, "K", "K", "r")
		if err != nil {
			t.Fatal(err)
		}
		gotJ, err := Join(left, right, "K", "K", "r")
		if err != nil {
			t.Fatal(err)
		}
		if err := strictRowsEq(gotJ, wantJ); err != nil {
			t.Fatalf("trial %d join: %v", trial, err)
		}
		gotL, err := LeftJoin(left, right, "K", "K", "r")
		if err != nil {
			t.Fatal(err)
		}
		if err := strictRowsEq(gotL, wantL); err != nil {
			t.Fatalf("trial %d left join: %v", trial, err)
		}
	}
}

// TestColumnarOpsChunkInvariance pins the remaining operators' output —
// rows, row order, value kinds and error text — over seeded relations, as
// a digest of their schema and AppendRowJSON lines. The digest was recorded
// from the chunk-parallel implementation these sequential loops replaced,
// which gave it under every chunk width and pool size it supported, so the
// loops keep exactly the output that was chunk-invariant.
func TestColumnarOpsChunkInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	type op struct {
		name string
		run  func(*Rows) (*Rows, error)
	}
	ops := []op{
		{"project", func(in *Rows) (*Rows, error) { return Project(in, "K", "ID") }},
		{"derive", func(in *Rows) (*Rows, error) {
			return Derive(in,
				Derivation{Name: "twice", Type: KindInt, Expr: Arith(OpMul, Col("ID"), Lit(Int(2)))},
				Derivation{Name: "tag", Type: KindString, Expr: call("UPPER", Col("K"))},
			)
		}},
		{"extend", func(in *Rows) (*Rows, error) {
			return Extend(in, Derivation{Name: "has", Type: KindBool, Expr: CaseExpr{
				Branches: []CaseBranch{{When: IsNull(Col("X")), Then: Lit(Bool(false))}},
				Else:     Lit(Bool(true)),
			}})
		}},
		{"distinct", func(in *Rows) (*Rows, error) {
			p, err := Project(in, "K", "B")
			if err != nil {
				return nil, err
			}
			return Distinct(p), nil
		}},
		{"sort", func(in *Rows) (*Rows, error) { return SortBy(in, "K", "N", "ID") }},
		{"pivot", func(in *Rows) (*Rows, error) { return Pivot(in, []string{"ID"}, "Attr", "Val") }},
		{"unpivot", func(in *Rows) (*Rows, error) {
			piv, err := Pivot(in, []string{"ID"}, "Attr", "Val")
			if err != nil {
				return nil, err
			}
			return Unpivot(piv, []string{"ID"}, "Attr", "Val", []Column{
				{Name: "K", Type: KindString}, {Name: "B", Type: KindBool},
			})
		}},
		{"group", func(in *Rows) (*Rows, error) {
			return GroupBy(in, []string{"K"},
				Aggregate{Kind: AggCount, As: "n"},
				Aggregate{Kind: AggSum, Col: "X", As: "sx"},
				Aggregate{Kind: AggMin, Col: "N", As: "mn"},
				Aggregate{Kind: AggMax, Col: "X", As: "mx"},
				Aggregate{Kind: AggAvg, Col: "N", As: "av"},
			)
		}},
	}
	h := sha256.New()
	for trial := 0; trial < 10; trial++ {
		in := randRelation(r, r.Intn(120))
		for _, o := range ops {
			fmt.Fprintf(h, "trial %d %s\n", trial, o.name)
			out, err := o.run(in)
			if err != nil {
				fmt.Fprintf(h, "error %v\n", err)
				continue
			}
			line, err := json.Marshal(schemaToSerial(out.Schema))
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range out.Data {
				line = append(line, '\n')
				if line, err = AppendRowJSON(line, row); err != nil {
					t.Fatal(err)
				}
			}
			h.Write(append(line, '\n'))
		}
	}
	const want = "c6be967b442a85c43c82aec994893e0a5679024ca63e624183a206b80273e6d1"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("operator output digest %s, want %s", got, want)
	}
}

// TestColumnarErrorEquivalence: a predicate fails on exactly the rows that
// reach a failing operand, through every scan path. A conjunct behind one
// that no row passes, or a disjunct behind one that every row passes, is
// never evaluated, so it never fails.
func TestColumnarErrorEquivalence(t *testing.T) {
	in := randRelation(rand.New(rand.NewSource(17)), 300)
	// Ordered comparison between TEXT and BOOLEAN errors on any row where
	// both sides are non-NULL.
	bad := Cmp(CmpLt, Col("K"), Col("B"))
	if _, err := refSelect(in, bad); err == nil {
		t.Fatal("reference did not error")
	}
	checkEverywhere(t, "bad", in, bad)
	checkEverywhere(t, "FALSE AND bad", in, And(BoolLit{V: false}, bad))

	none := Eq("ID", Int(-1)) // no row has a negative ID
	for _, unknown := range []Pred{IsNull(Col("nope")), IsNotNull(Col("nope")), In(Col("nope"), Int(1), Str("a"))} {
		for _, c := range []struct {
			pred  Pred
			fails bool
		}{
			{And(none, unknown), false},
			{Not(And(none, unknown)), false},
			{Or(Not(none), unknown), false},
			{And(Eq("N", Int(99)), unknown), false}, // N stays within [-10, 10) or past 2^60
			{Or(none, unknown), true},
			{Not(unknown), true},
			{And(Not(none), Or(Eq("K", Str("a")), unknown)), true},
		} {
			_, err := refSelect(in, c.pred)
			if (err != nil) != c.fails {
				t.Fatalf("%s: reference error %v, want failure %v", c.pred.SQL(), err, c.fails)
			}
			checkEverywhere(t, c.pred.SQL(), in, c.pred)
			checkEverywhere(t, "empty "+c.pred.SQL(), &Rows{Schema: in.Schema}, c.pred)
		}
	}
}

func TestEqualUnordered(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	in := randRelation(r, 50)
	perm := in.Clone()
	rand.New(rand.NewSource(29)).Shuffle(len(perm.Data), func(i, j int) {
		perm.Data[i], perm.Data[j] = perm.Data[j], perm.Data[i]
	})
	if !in.EqualUnordered(perm) {
		t.Error("permutation must compare equal")
	}
	// Multiset semantics: duplicate counts matter.
	s := MustSchema(Column{Name: "V", Type: KindInt})
	a := &Rows{Schema: s, Data: []Row{{Int(1)}, {Int(1)}, {Int(2)}}}
	b := &Rows{Schema: s, Data: []Row{{Int(1)}, {Int(2)}, {Int(2)}}}
	if a.EqualUnordered(b) {
		t.Error("different duplicate counts must compare unequal")
	}
	if !a.EqualUnordered(&Rows{Schema: s, Data: []Row{{Int(2)}, {Int(1)}, {Int(1)}}}) {
		t.Error("same multiset must compare equal")
	}
}
