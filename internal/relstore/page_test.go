package relstore

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The paged-read and canonical-order harness: SelectPage must equal a
// row-at-a-time select over storage order plus slicing, whatever the window,
// and Order must equal a stable SortBy while every hash-index probe keeps
// returning exactly the right rows.

// pageRelation is randRelation made harder for paging: NULL-dense when dense
// is set (three quarters of the nullable cells cleared), and with about a
// quarter of the rows repeated verbatim, so identical rows must keep their
// multiplicity and their relative order.
func pageRelation(r *rand.Rand, n int, dense bool) *Rows {
	in := randRelation(r, n)
	if dense {
		for _, row := range in.Data {
			for c := 1; c < len(row); c++ {
				if r.Intn(4) > 0 {
					row[c] = Null()
				}
			}
		}
	}
	for i := 0; i < n/4; i++ {
		in.Data = append(in.Data, in.Data[r.Intn(n)].Clone())
	}
	r.Shuffle(len(in.Data), func(i, j int) { in.Data[i], in.Data[j] = in.Data[j], in.Data[i] })
	return in
}

// pageTable loads rows into a table hash-indexed on K and N, so equality
// and IN predicates on those columns take the index-probe path.
func pageTable(t *testing.T, in *Rows) *Table {
	t.Helper()
	tb := NewTable("T", in.Schema)
	for _, col := range []string{"K", "N"} {
		if err := tb.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.InsertAll(in.Data); err != nil {
		t.Fatal(err)
	}
	return tb
}

// pagePred mixes randPred's scan-path trees with the shapes the index
// probe recognizes: a bare equality or IN on an indexed column, or one
// conjoined with a residual tree.
func pagePred(r *rand.Rand) Pred {
	key := func() Value { return Str(string(rune('a' + r.Intn(6)))) }
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return Eq("K", key())
	case 2:
		return In(Col("K"), key(), key())
	case 3:
		return And(Eq("N", Int(int64(r.Intn(20)-10))), randPred(r, 2))
	case 4:
		return And(randPred(r, 1), In(Col("N"), Int(int64(r.Intn(20)-10)), Int((int64(1)<<60)+1)))
	default:
		return randPred(r, 3)
	}
}

// windows returns the (offset, limit) pairs a result of total rows is paged
// at: the first, middle, last, one-past-the-end and far-past pages, each
// empty, single-row, short, long and unbounded.
func windows(total int) [][2]int {
	var out [][2]int
	for _, off := range []int{0, total / 2, max(total-1, 0), total, total + 3} {
		for _, lim := range []int{0, 1, 3, 100, math.MaxInt} {
			out = append(out, [2]int{off, lim})
		}
	}
	return out
}

func TestSelectPageEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		tb := pageTable(t, pageRelation(r, r.Intn(120), trial%2 == 0))
		if trial%3 == 0 {
			if err := tb.Order(tb.Schema().Names()...); err != nil {
				t.Fatal(err)
			}
		}
		pred := pagePred(r)
		rows := tb.Rows()
		probed := probes(tb, pred)
		checkEverywhere(t, fmt.Sprintf("trial %d", trial), rows, pred)
		for _, w := range windows(refHolds(rows, pred).Len()) {
			got, total, err := tb.SelectPage(pred, w[0], w[1])
			want, wantErr := expected(rows, pred, probed, err)
			if wantErr == nil && err == nil {
				if total != want.Len() {
					t.Fatalf("trial %d window %v pred %v: total %d, want %d", trial, w, pred, total, want.Len())
				}
				lo := min(w[0], total)
				hi := lo + min(w[1], total-lo)
				want = &Rows{Schema: want.Schema, Data: want.Data[lo:hi]}
			}
			if err := sameOutcome(got, err, want, wantErr); err != nil {
				t.Fatalf("trial %d window %v pred %v: %v", trial, w, pred, err)
			}
		}
	}
}

// TestSelectPageErrors: a predicate that errors fails every window — even
// an empty page, since every match is counted — with Select's error text,
// on both the scan and the index-probe path.
func TestSelectPageErrors(t *testing.T) {
	tb := pageTable(t, pageRelation(rand.New(rand.NewSource(37)), 200, false))
	bad := Cmp(CmpLt, Col("K"), Col("B")) // TEXT < BOOLEAN errors on non-NULL pairs
	for _, pred := range []Pred{bad, And(Eq("K", Str("a")), bad)} {
		_, selErr := tb.Select(pred)
		if selErr == nil {
			t.Fatalf("%s: Select did not error", pred.SQL())
		}
		if _, refErr := refSelect(tb.Rows(), pred); refErr == nil {
			t.Fatalf("%s: reference did not error", pred.SQL())
		}
		for _, w := range windows(tb.Len()) {
			_, _, err := tb.SelectPage(pred, w[0], w[1])
			if err == nil || err.Error() != selErr.Error() {
				t.Fatalf("%s window %v: error %v, want %v", pred.SQL(), w, err, selErr)
			}
		}
	}
}

// TestOrderMatchesSortBy: Order leaves the table in exactly SortBy's stable
// order over a full scan — first from an arbitrary order, then again after
// deletes and appends, where only the unordered tail is sorted and merged.
func TestOrderMatchesSortBy(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	names := propSchema().Names()
	for trial := 0; trial < 40; trial++ {
		tb := pageTable(t, pageRelation(r, r.Intn(100), trial%2 == 1))
		cols := names
		if trial%4 != 0 {
			cols = append([]string(nil), names...)
			r.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
			cols = cols[:1+r.Intn(len(cols))]
		}
		for round := 0; round < 3; round++ {
			before := tb.Rows()
			want, err := SortBy(before, cols...)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.Order(cols...); err != nil {
				t.Fatal(err)
			}
			if err := strictRowsEq(tb.Rows(), want); err != nil {
				t.Fatalf("trial %d round %d order %v: %v", trial, round, cols, err)
			}
			if _, err := tb.Delete(randPred(r, 1)); err != nil && !strings.Contains(err.Error(), `unknown column "nope"`) {
				t.Fatal(err)
			}
			if err := tb.InsertAll(pageRelation(r, r.Intn(20), false).Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := NewTable("T", propSchema()).Order("nope"); err == nil {
		t.Error("ordering by a missing column must fail")
	}
}

// TestOrderRemembersItsPrefix drives random mutation sequences between
// Orders by one column list, so most Orders take the remembered ordered
// prefix as given and merge only the rows appended since. Every Order must
// still equal a stable SortBy of what the table held, and every index probe
// must still find exactly the rows a scan finds — including after Update
// and Truncate, which forget the prefix, an Order by other columns, and a
// Clone, which carries the prefix over.
func TestOrderRemembersItsPrefix(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	names := propSchema().Names()
	for trial := 0; trial < 30; trial++ {
		cols := names
		if trial%3 != 0 {
			cols = []string{"K", "N"}[:1+trial%2]
		}
		tb := pageTable(t, pageRelation(r, r.Intn(80), trial%2 == 0))
		for step := 0; step < 25; step++ {
			switch op := r.Intn(9); op {
			case 0, 1:
				if err := tb.InsertAll(pageRelation(r, r.Intn(8), false).Data); err != nil {
					t.Fatal(err)
				}
			case 2:
				if err := tb.Insert(pageRelation(r, 1, false).Data[0]); err != nil {
					t.Fatal(err)
				}
			case 3, 4:
				if _, err := tb.Delete(pagePred(r)); err != nil && !strings.Contains(err.Error(), `unknown column "nope"`) {
					t.Fatal(err)
				}
			case 5:
				if _, err := tb.Update(Eq("K", Str("c")), func(row Row) Row {
					row[1], row[2] = Str("a"), Int(int64(r.Intn(20)-10))
					return row
				}); err != nil {
					t.Fatal(err)
				}
			case 6:
				if err := tb.Order("ID"); err != nil {
					t.Fatal(err)
				}
			case 7:
				tb = tb.Clone()
			default:
				if r.Intn(8) == 0 {
					tb.Truncate()
				}
			}
			want, err := SortBy(tb.Rows(), cols...)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.Order(cols...); err != nil {
				t.Fatal(err)
			}
			if err := strictRowsEq(tb.Rows(), want); err != nil {
				t.Fatalf("trial %d step %d order %v: %v", trial, step, cols, err)
			}
			checkProbes(t, tb, fmt.Sprintf("trial %d step %d", trial, step))
		}
	}
}

// checkProbes requires every Lookup on the indexed columns K and N to
// return exactly the rows a scan finds, in storage order: a wrong position
// fix-up in a reorder shows here.
func checkProbes(t *testing.T, tb *Table, step string) {
	t.Helper()
	scan := tb.Rows()
	for _, pr := range []struct {
		col string
		v   Value
	}{{"K", Str("a")}, {"K", Str("c")}, {"N", Int(-3)}, {"N", Int(7)}, {"N", Int((int64(1) << 60) + 1)}} {
		ci := scan.Schema.Index(pr.col)
		want := &Rows{Schema: scan.Schema}
		for _, row := range scan.Data {
			if row[ci].Equal(pr.v) {
				want.Data = append(want.Data, row)
			}
		}
		got, err := tb.Lookup(pr.col, pr.v)
		if err != nil {
			t.Fatal(err)
		}
		if err := strictRowsEq(&Rows{Schema: scan.Schema, Data: got}, want); err != nil {
			t.Fatalf("%s: Lookup(%s=%v): %v", step, pr.col, pr.v, err)
		}
	}
}

// TestOrderHugeInts: integers past 2^53, which share a float64, still sort
// exactly under both SortBy and Order.
func TestOrderHugeInts(t *testing.T) {
	const big = int64(1) << 60
	in := &Rows{Schema: propSchema()}
	for i, n := range []int64{big + 1, big, big + 2, big} {
		in.Data = append(in.Data, Row{Int(int64(i)), Null(), Int(n), Null(), Null()})
	}
	want := []int64{big, big, big + 1, big + 2}
	sorted, err := SortBy(in, "N")
	if err != nil {
		t.Fatal(err)
	}
	tb := pageTable(t, in)
	if err := tb.Order("N"); err != nil {
		t.Fatal(err)
	}
	for name, rows := range map[string]*Rows{"SortBy": sorted, "Order": tb.Rows()} {
		for i, row := range rows.Data {
			if got := row[2].AsInt(); got != want[i] {
				t.Fatalf("%s: row %d has N=%d, want %d", name, i, got, want[i])
			}
		}
	}
}

// TestOrderSortsNaNLast: Compare ties NaN with every number, so a row
// comparator built on it alone took 5, 6, 7, NaN, 1, 2, 3 as sorted. Both
// SortBy and Order put NaN after every number.
func TestOrderSortsNaNLast(t *testing.T) {
	in := &Rows{Schema: propSchema()}
	for i, x := range []float64{5, 6, 7, math.NaN(), 1, 2, 3} {
		in.Data = append(in.Data, Row{Int(int64(i)), Null(), Null(), Float(x), Null()})
	}
	sorted, err := SortBy(in, "X")
	if err != nil {
		t.Fatal(err)
	}
	tb := pageTable(t, in)
	if err := tb.Order("X"); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 5, 6, 7, math.NaN()}
	for name, rows := range map[string]*Rows{"SortBy": sorted, "Order": tb.Rows()} {
		for i, row := range rows.Data {
			if got := row[3].AsFloat(); got != want[i] && !(math.IsNaN(got) && math.IsNaN(want[i])) {
				t.Fatalf("%s: row %d has X=%v, want %v", name, i, got, want[i])
			}
		}
	}
}

// TestOrderMatchesSortByOnREAL: over REAL cells drawn from NaN, ±0,
// Int(2), Float(2) and a few other numbers, Order — from scratch and then
// after deletes and appends, merging only the new tail — leaves exactly
// SortBy's stable order, ties among NaNs, among ±0 and between Int(2) and
// Float(2) included (the ID column tells tied rows apart).
func TestOrderMatchesSortByOnREAL(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	cells := []Value{Null(), Float(math.NaN()), Float(0), Float(math.Copysign(0, -1)), Int(0),
		Int(2), Float(2), Float(-1.5), Int(7), Float(math.Inf(1))}
	next := int64(0)
	rows := func(n int) []Row {
		out := make([]Row, n)
		for i := range out {
			out[i] = Row{Int(next), Null(), Int(int64(r.Intn(3))), cells[r.Intn(len(cells))], Null()}
			next++
		}
		return out
	}
	for trial := 0; trial < 30; trial++ {
		tb := NewTable("T", propSchema())
		if err := tb.InsertAll(rows(r.Intn(60))); err != nil {
			t.Fatal(err)
		}
		cols := [][]string{{"X"}, {"X", "ID"}, {"N", "X"}}[trial%3]
		for round := 0; round < 4; round++ {
			want, err := SortBy(tb.Rows(), cols...)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.Order(cols...); err != nil {
				t.Fatal(err)
			}
			if err := strictRowsEq(tb.Rows(), want); err != nil {
				t.Fatalf("trial %d round %d order %v: %v", trial, round, cols, err)
			}
			if _, err := tb.Delete(Eq("X", cells[1+r.Intn(len(cells)-1)])); err != nil {
				t.Fatal(err)
			}
			if err := tb.InsertAll(rows(r.Intn(20))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestOrderKeepsIndexProbesExact reorders, deletes and appends, then checks
// every index-probe entry point against a filter over a full scan: Lookup,
// indexed equality and IN Selects, and indexed Delete — the last on a Clone,
// which must leave the original untouched.
func TestOrderKeepsIndexProbesExact(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		tb := pageTable(t, pageRelation(r, 20+r.Intn(100), trial%2 == 0))
		for round := 0; round < 3; round++ {
			if err := tb.Order(tb.Schema().Names()...); err != nil {
				t.Fatal(err)
			}
			if _, err := tb.Delete(pagePred(r)); err != nil && !strings.Contains(err.Error(), `unknown column "nope"`) {
				t.Fatal(err)
			}
			if err := tb.InsertAll(pageRelation(r, r.Intn(30), false).Data); err != nil {
				t.Fatal(err)
			}
		}
		scan := tb.Rows()
		filter := func(keep func(Row) bool) *Rows {
			out := &Rows{Schema: scan.Schema}
			for _, row := range scan.Data {
				if keep(row) {
					out.Data = append(out.Data, row)
				}
			}
			return out
		}
		// Probe values include integers past 2^53, whose float64 hash keys
		// collide: the probe must still return only exact matches.
		probes := []struct {
			col string
			v   Value
		}{{"K", Str("a")}, {"K", Str("b")}, {"K", Str("e")}, {"K", Str("zz")},
			{"N", Int(-3)}, {"N", Int(7)}, {"N", Int(int64(1) << 60)}, {"N", Int((int64(1) << 60) + 1)}}
		for _, pr := range probes {
			ci := scan.Schema.Index(pr.col)
			want := filter(func(row Row) bool { return row[ci].Equal(pr.v) })
			got, err := tb.Lookup(pr.col, pr.v)
			if err != nil {
				t.Fatal(err)
			}
			if err := strictRowsEq(&Rows{Schema: scan.Schema, Data: got}, want); err != nil {
				t.Fatalf("trial %d Lookup(%s=%v): %v", trial, pr.col, pr.v, err)
			}
			sel, err := tb.Select(Eq(pr.col, pr.v))
			if err != nil {
				t.Fatal(err)
			}
			if err := strictRowsEq(sel, want); err != nil {
				t.Fatalf("trial %d Select(%s=%v): %v", trial, pr.col, pr.v, err)
			}
		}
		for n := int64(-10); n < 10; n += 3 {
			vs := []Value{Int(n), Int((int64(1) << 60) + 2)}
			want := filter(func(row Row) bool { return row[2].Equal(vs[0]) || row[2].Equal(vs[1]) })
			got, err := tb.Select(In(Col("N"), vs...))
			if err != nil {
				t.Fatal(err)
			}
			if err := strictRowsEq(got, want); err != nil {
				t.Fatalf("trial %d Select(N IN %v): %v", trial, vs, err)
			}
		}

		// Indexed deletes run on a clone, which must leave the original
		// and its indexes untouched.
		c := tb.Clone()
		doomedK, doomedN := Str("b"), Int((int64(1)<<60)+1)
		want := filter(func(row Row) bool { return !row[1].Equal(doomedK) && !row[2].Equal(doomedN) })
		n := 0
		for _, p := range []Pred{Eq("K", doomedK), Eq("N", doomedN)} {
			d, err := c.Delete(p)
			if err != nil {
				t.Fatal(err)
			}
			n += d
		}
		if n != scan.Len()-want.Len() {
			t.Fatalf("trial %d: indexed Deletes removed %d rows, want %d", trial, n, scan.Len()-want.Len())
		}
		if err := strictRowsEq(c.Rows(), want); err != nil {
			t.Fatalf("trial %d: clone after indexed Deletes: %v", trial, err)
		}
		if got, _ := c.Lookup("K", doomedK); len(got) != 0 {
			t.Fatalf("trial %d: clone still finds %d deleted rows through the index", trial, len(got))
		}
		if err := strictRowsEq(tb.Rows(), scan); err != nil {
			t.Fatalf("trial %d: Delete on a clone changed the original: %v", trial, err)
		}
		kept := filter(func(row Row) bool { return row[1].Equal(doomedK) })
		if got, _ := tb.Lookup("K", doomedK); len(got) != kept.Len() {
			t.Fatalf("trial %d: original's index lost rows deleted from its clone", trial)
		}
	}
}

// tableView is everything a reader can observe of a table: its rows in
// storage order, scan-path and index-probe Selects, and Lookups.
func tableView(t *testing.T, tb *Table) []*Rows {
	t.Helper()
	var scan []Row
	tb.Scan(func(r Row) bool {
		scan = append(scan, r.Clone())
		return true
	})
	views := []*Rows{{Schema: tb.Schema(), Data: scan}}
	for _, p := range []Pred{
		Eq("K", Str("a")), In(Col("N"), Int(-3), Int(7)),
		Cmp(CmpGt, Col("N"), Lit(Int(0))), IsNull(Col("K")),
	} {
		sel, err := tb.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, sel)
	}
	for _, v := range []Value{Str("a"), Str("c"), Int(7), Int((int64(1) << 60) + 1)} {
		col := "K"
		if v.Kind() == KindInt {
			col = "N"
		}
		got, err := tb.Lookup(col, v)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, &Rows{Schema: tb.Schema(), Data: got})
	}
	return views
}

// TestCloneIndependence: a Clone shares its source's stored rows, so every
// mutation on either table must still leave what a reader sees of the
// other — Scan, Select and index probes — unchanged.
func TestCloneIndependence(t *testing.T) {
	mutations := []struct {
		name string
		fn   func(*Table) error
	}{
		{"Insert", func(tb *Table) error {
			return tb.InsertAll([]Row{{Int(1000), Str("a"), Int(7), Null(), Bool(true)}, {Int(1001), Null(), Null(), Float(1), Null()}})
		}},
		{"Delete", func(tb *Table) error {
			_, err := tb.Delete(Or(Eq("K", Str("a")), Cmp(CmpGt, Col("N"), Lit(Int(3)))))
			return err
		}},
		{"Update", func(tb *Table) error {
			_, err := tb.Update(Eq("K", Str("c")), func(r Row) Row {
				r[1], r[2] = Str("a"), Int(7)
				return r
			})
			return err
		}},
		{"Order", func(tb *Table) error { return tb.Order("N", "K") }},
		{"Truncate", func(tb *Table) error { tb.Truncate(); return nil }},
	}
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		for _, m := range mutations {
			for _, mutateClone := range []bool{true, false} {
				tb := pageTable(t, pageRelation(r, 20+r.Intn(60), trial%2 == 0))
				c := tb.Clone()
				target, other := tb, c
				if mutateClone {
					target, other = c, tb
				}
				before := tableView(t, other)
				if err := m.fn(target); err != nil {
					t.Fatal(err)
				}
				for i, got := range tableView(t, other) {
					if err := strictRowsEq(got, before[i]); err != nil {
						t.Fatalf("trial %d: %s on the %s changed view %d of the other table: %v",
							trial, m.name, map[bool]string{true: "clone", false: "original"}[mutateClone], i, err)
					}
				}
			}
		}
	}
}

// TestPrefixProbe drives the prefix path through the literal shapes its
// binary search must get right, on tables clustered on an INTEGER, a TEXT
// and a BOOLEAN column, each with a shortened ordered prefix and a tail
// (orderedTable). Every outcome must equal a scan's (checkTable). The table
// has no hash index, so a probe is the prefix path: the shapes marked
// prefix must take it, and those marked scan — <>, OR, NOT and NULL
// literals — must not; the rest may. A table ordered on a REAL column must never
// take it: there Order accepts 5, 6, 7, NaN, 1, 2, 3 as ascending, and
// Ints past 2^53 that Compare orders apart but calls equal to their
// float64 neighbour, so a binary search for X < 2 would miss the 1.
func TestPrefixProbe(t *testing.T) {
	const big = int64(1) << 60
	nan := math.NaN()
	col := func(name string, op CmpOp, v Value) Pred { return Cmp(op, Col(name), Lit(v)) }
	in := randRelation(rand.New(rand.NewSource(59)), 160)
	const anyPath, prefix, scan = 0, 1, 2
	type probeCase struct {
		pred Pred
		path int
	}
	cases := map[string][]probeCase{
		"N": {
			{col("N", CmpEq, Float(float64(big))), prefix}, // Int 2^60+{0,1,2} all Equal it
			{col("N", CmpGe, Float(float64(big))), prefix},
			{col("N", CmpLt, Float(-2.5)), prefix},
			{col("N", CmpLe, Float(0.5)), anyPath},
			{col("N", CmpGt, Float(2.5)), prefix},
			{col("N", CmpGe, Float(-0.5)), anyPath},
			{In(Col("N"), Int(2), Float(2), Int(2), Int(big+1), Float(float64(big))), prefix},
			{In(Col("N")), prefix},
			{Cmp(CmpLt, Lit(Int(1)), Col("N")), prefix},
			{Cmp(CmpEq, Lit(Float(float64(big))), Col("N")), prefix},
			{Cmp(CmpGe, Lit(Float(-3.5)), Col("N")), prefix},
			{And(col("N", CmpGt, Int(2)), col("N", CmpLt, Int(1))), prefix},
			{And(col("N", CmpGe, Float(-0.5)), Cmp(CmpGt, Lit(Int(3)), Col("N"))), prefix},
			{And(In(Col("N"), Int(1), Int(2), Int(3)), col("N", CmpGt, Int(1)), col("K", CmpEq, Str("a"))), prefix},
			{col("N", CmpEq, Float(nan)), anyPath},
			{col("N", CmpLt, Float(nan)), anyPath},
			{col("N", CmpLe, Float(nan)), anyPath},
			{col("N", CmpGt, Float(nan)), anyPath},
			{col("N", CmpGe, Float(nan)), anyPath},
			{col("N", CmpEq, Str("a")), prefix},
			{col("N", CmpLt, Str("a")), anyPath},
			{col("N", CmpLe, Str("a")), anyPath},
			{col("N", CmpGt, Str("a")), prefix},
			{col("N", CmpGe, Str("a")), prefix},
			{col("N", CmpLt, Bool(true)), anyPath},
			{col("N", CmpNe, Int(2)), scan},
			{col("N", CmpEq, Null()), scan},
			{col("N", CmpLt, Null()), scan},
			{In(Col("N"), Int(1), Null()), scan},
			{Or(col("N", CmpEq, Int(1)), col("N", CmpEq, Int(2))), scan},
			{Not(col("N", CmpGe, Int(1))), scan},
		},
		"K": {
			{col("K", CmpEq, Str("b")), prefix},
			{col("K", CmpLt, Str("c")), prefix},
			{Cmp(CmpLe, Lit(Str("c")), Col("K")), prefix},
			{In(Col("K"), Str("e"), Str("a"), Str("e")), prefix},
			{col("K", CmpEq, Int(1)), prefix},
			{col("K", CmpGe, Int(1)), anyPath},
			{And(col("K", CmpGe, Str("b")), col("K", CmpLe, Str("b")), col("N", CmpGt, Int(0))), prefix},
		},
		"B": {
			{col("B", CmpEq, Bool(true)), prefix},
			{col("B", CmpLt, Bool(true)), prefix},
			{In(Col("B"), Bool(false)), prefix},
		},
	}
	for lead, cs := range cases {
		tb := orderedTable(t, in, lead)
		for _, c := range cs {
			label := fmt.Sprintf("ordered on %s: %s", lead, c.pred.SQL())
			if got := probes(tb, c.pred); c.path != anyPath && got != (c.path == prefix) {
				t.Errorf("%s: probed %v, want %v", label, got, c.path == prefix)
			}
			checkTable(t, label, tb, c.pred)
		}
	}

	real := &Rows{Schema: propSchema()}
	for i, x := range []Value{Float(5), Float(6), Int(7), Float(nan), Float(1), Int(2), Float(3),
		Int(1<<53 + 1), Float(1 << 53), Int(1 << 53), Int(1<<53 + 1)} {
		real.Data = append(real.Data, Row{Int(int64(i)), Null(), Null(), x, Null()})
	}
	tb := NewTable("T", real.Schema)
	if err := tb.InsertAll(real.Data); err != nil {
		t.Fatal(err)
	}
	if err := tb.Order("X"); err != nil {
		t.Fatal(err)
	}
	for _, pred := range []Pred{
		col("X", CmpLt, Int(2)), col("X", CmpLe, Float(1)), col("X", CmpGt, Int(6)), col("X", CmpGe, Float(7)),
		col("X", CmpEq, Float(1)), col("X", CmpEq, Int(1<<53)), col("X", CmpGt, Int(1<<53)),
		col("X", CmpLe, Float(1<<53)), In(Col("X"), Int(1), Int(1<<53+1)),
	} {
		label := "ordered on X: " + pred.SQL()
		if probes(tb, pred) {
			t.Errorf("%s: a REAL column answered a probe", label)
		}
		checkTable(t, label, tb, pred)
	}
}
