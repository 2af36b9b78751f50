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
