package relstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The columnar equivalence harness: every chunked operator must produce
// output identical — same rows, same order, same value kinds — to a
// row-at-a-time reference, over seeded randomized relations covering NULLs,
// kind exceptions (ints stored in REAL columns), huge int64s beyond float64
// precision, empty inputs, and every batch-size/parallelism configuration.

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

// withExec reconfigures the chunk width and pool for one test, restoring the
// previous configuration on cleanup.
func withExec(t *testing.T, batch, par int) {
	t.Helper()
	ob, op := BatchSize(), Parallelism()
	SetBatchSize(batch)
	SetParallelism(par)
	t.Cleanup(func() {
		SetBatchSize(ob)
		SetParallelism(op)
	})
}

// execConfigs are the batch/parallelism shapes the equivalence tests sweep:
// degenerate one-row chunks, odd widths that leave ragged tails, and the
// default — each sequential and parallel.
var execConfigs = [][2]int{{1, 1}, {1, 4}, {7, 1}, {7, 3}, {64, 8}, {DefaultBatchSize, 8}}

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

// randPred builds a random predicate tree over propSchema's columns.
func randPred(r *rand.Rand, depth int) Pred {
	if depth > 0 && r.Intn(2) == 0 {
		switch r.Intn(3) {
		case 0:
			return And(randPred(r, depth-1), randPred(r, depth-1))
		case 1:
			return Or(randPred(r, depth-1), randPred(r, depth-1))
		default:
			return Not(randPred(r, depth-1))
		}
	}
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	switch r.Intn(7) {
	case 0:
		return Cmp(ops[r.Intn(len(ops))], Col("K"), Lit(Str(string(rune('a'+r.Intn(5))))))
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

// refSelect is the row-at-a-time reference the columnar Select must match.
func refSelect(in *Rows, pred Pred) (*Rows, error) {
	var out []Row
	for _, r := range in.Data {
		ok, err := evalPred(pred, r, in.Schema)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return &Rows{Schema: in.Schema, Data: out}, nil
}

func TestColumnarSelectEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		in := randRelation(r, r.Intn(150))
		pred := randPred(r, 3)
		want, refErr := refSelect(in, pred)
		for _, cfg := range execConfigs {
			withExec(t, cfg[0], cfg[1])
			got, err := Select(in, pred)
			if refErr != nil {
				if err == nil {
					t.Fatalf("trial %d cfg %v: reference errored (%v), columnar did not", trial, cfg, refErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d cfg %v: %v", trial, cfg, err)
			}
			if err := strictRowsEq(got, want); err != nil {
				t.Fatalf("trial %d cfg %v pred %s: %v", trial, cfg, pred.SQL(), err)
			}
		}
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
		for _, cfg := range execConfigs {
			withExec(t, cfg[0], cfg[1])
			gotJ, err := Join(left, right, "K", "K", "r")
			if err != nil {
				t.Fatal(err)
			}
			if err := strictRowsEq(gotJ, wantJ); err != nil {
				t.Fatalf("trial %d cfg %v join: %v", trial, cfg, err)
			}
			gotL, err := LeftJoin(left, right, "K", "K", "r")
			if err != nil {
				t.Fatal(err)
			}
			if err := strictRowsEq(gotL, wantL); err != nil {
				t.Fatalf("trial %d cfg %v left join: %v", trial, cfg, err)
			}
		}
	}
}

// TestColumnarOpsChunkInvariance pins the remaining operators: whatever the
// chunk width and pool size, output must be byte-identical to the sequential
// single-chunk run.
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
				Derivation{Name: "tag", Type: KindString, Expr: Call("UPPER", Col("K"))},
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
	for trial := 0; trial < 10; trial++ {
		in := randRelation(r, r.Intn(120))
		for _, o := range ops {
			withExec(t, 1<<30, 1) // sequential, single chunk: the reference
			want, refErr := o.run(in)
			for _, cfg := range execConfigs {
				withExec(t, cfg[0], cfg[1])
				got, err := o.run(in)
				if refErr != nil {
					if err == nil {
						t.Fatalf("trial %d %s cfg %v: reference errored (%v), chunked did not", trial, o.name, cfg, refErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("trial %d %s cfg %v: %v", trial, o.name, cfg, err)
				}
				if err := strictRowsEq(got, want); err != nil {
					t.Fatalf("trial %d %s cfg %v: %v", trial, o.name, cfg, err)
				}
			}
		}
	}
}

// TestColumnarErrorEquivalence: a predicate that errors on some row must
// error under every configuration, with the same (first-chunk) error text.
func TestColumnarErrorEquivalence(t *testing.T) {
	in := randRelation(rand.New(rand.NewSource(17)), 300)
	// Ordered comparison between TEXT and BOOLEAN errors on any row where
	// both sides are non-NULL.
	bad := Cmp(CmpLt, Col("K"), Col("B"))
	want, refErr := refSelect(in, bad)
	if refErr == nil {
		t.Fatalf("reference did not error (got %d rows)", want.Len())
	}
	for _, cfg := range execConfigs {
		withExec(t, cfg[0], cfg[1])
		if _, err := Select(in, bad); err == nil {
			t.Fatalf("cfg %v: columnar select did not error", cfg)
		}
	}
	// Short-circuit guard: the same comparison behind a FALSE conjunct must
	// NOT error — AND masks restrict later conjuncts to surviving rows.
	guarded := And(BoolLit{V: false}, bad)
	for _, cfg := range execConfigs {
		withExec(t, cfg[0], cfg[1])
		out, err := Select(in, guarded)
		if err != nil {
			t.Fatalf("cfg %v: guarded conjunct evaluated on masked rows: %v", cfg, err)
		}
		if out.Len() != 0 {
			t.Fatalf("cfg %v: FALSE AND ... selected %d rows", cfg, out.Len())
		}
	}
}

func TestVectorRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	in := randRelation(r, 200)
	b := BatchFromRows(in, 0, len(in.Data), nil)
	for i, row := range in.Data {
		for c := range row {
			got := b.Vecs[c].Value(i)
			if !strictValEq(got, row[c]) {
				t.Fatalf("row %d col %d: vector gave %v, want %v", i, c, got, row[c])
			}
			if b.Vecs[c].Null(i) != row[c].IsNull() {
				t.Fatalf("row %d col %d: null bit %v, value %v", i, c, b.Vecs[c].Null(i), row[c])
			}
		}
		if err := strictRowsEq(&Rows{Schema: in.Schema, Data: []Row{b.Row(i)}},
			&Rows{Schema: in.Schema, Data: []Row{row}}); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	// The REAL column holds Int exceptions by construction; the vector must
	// know it is impure, and a pure column must report pure.
	xi := in.Schema.Index("X")
	hasExc := false
	for _, row := range in.Data {
		if !row[xi].IsNull() && row[xi].Kind() == KindInt {
			hasExc = true
		}
	}
	if hasExc == b.Vecs[xi].Pure() {
		t.Errorf("X column: exceptions=%v but Pure()=%v", hasExc, b.Vecs[xi].Pure())
	}
	if !b.Vecs[in.Schema.Index("ID")].Pure() {
		t.Error("ID column has no exceptions but reports impure")
	}
	// Round-trip through Batch.Rows as a whole.
	if err := strictRowsEq(b.Rows(), in); err != nil {
		t.Fatal(err)
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
	// Sorted-key comparison is total even when many rows collide on a key
	// prefix; verify against a sequential sort of the same keys.
	keys := ParallelRowKeys(in.Data, Row.Key)
	seq := make([]string, len(in.Data))
	for i, row := range in.Data {
		seq[i] = row.Key()
	}
	sort.Strings(keys)
	sort.Strings(seq)
	for i := range keys {
		if keys[i] != seq[i] {
			t.Fatalf("parallel key %d diverges from sequential", i)
		}
	}
}
