package relstore

import (
	"strings"
	"testing"
	"testing/quick"
)

func sampleRows(t *testing.T) *Rows {
	t.Helper()
	s := MustSchema(
		Column{Name: "ID", Type: KindInt, NotNull: true},
		Column{Name: "Smoking", Type: KindString},
		Column{Name: "Packs", Type: KindFloat},
	)
	return &Rows{Schema: s, Data: []Row{
		{Int(1), Str("Current"), Float(2)},
		{Int(2), Str("None"), Float(0)},
		{Int(3), Str("Previous"), Float(1)},
		{Int(4), Str("Current"), Float(5)},
		{Int(5), Null(), Null()},
	}}
}

func TestSelect(t *testing.T) {
	in := sampleRows(t)
	out, err := Select(in, Eq("Smoking", Str("Current")))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("selected %d rows, want 2", out.Len())
	}
	all, err := Select(in, nil)
	if err != nil || all.Len() != in.Len() {
		t.Error("nil predicate must keep everything")
	}
	if _, err := Select(in, Eq("Nope", Int(1))); err == nil {
		t.Error("bad predicate column must error")
	}
}

func TestProject(t *testing.T) {
	in := sampleRows(t)
	out, err := Project(in, "Packs", "ID")
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.NameList() != "Packs, ID" {
		t.Errorf("schema = %s", out.Schema.NameList())
	}
	if !out.Data[0].Equal(Row{Float(2), Int(1)}) {
		t.Errorf("row = %v", out.Data[0])
	}
	if _, err := Project(in, "Nope"); err == nil {
		t.Error("projecting missing column must error")
	}
}

func TestDeriveAndExtend(t *testing.T) {
	in := sampleRows(t)
	out, err := Derive(in,
		Derivation{Name: "ID", Type: KindInt, Expr: Col("ID")},
		Derivation{Name: "Doubled", Type: KindFloat, Expr: Arith(OpMul, Col("Packs"), Lit(Int(2)))},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Data[0].Equal(Row{Int(1), Float(4)}) {
		t.Errorf("derive row = %v", out.Data[0])
	}
	if !out.Data[4][1].IsNull() {
		t.Error("NULL input must derive NULL")
	}
	ext, err := Extend(in, Derivation{Name: "Heavy", Type: KindBool, Expr: Cmp2Bool(Cmp(CmpGe, Col("Packs"), Lit(Int(2))))})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Schema.Arity() != 4 {
		t.Errorf("extend arity = %d", ext.Schema.Arity())
	}
	if !ext.Data[0][3].Equal(Bool(true)) || !ext.Data[1][3].Equal(Bool(false)) {
		t.Errorf("extend values wrong: %v %v", ext.Data[0][3], ext.Data[1][3])
	}
	// Derive with incompatible coercion errors out.
	_, err = Derive(in, Derivation{Name: "Bad", Type: KindInt, Expr: Lit(Str("xyz"))})
	if err == nil {
		t.Error("uncoercible derive must error")
	}
}

func TestRenameOp(t *testing.T) {
	in := sampleRows(t)
	out, err := Rename(in, "Packs", "PacksPerDay")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Schema.Has("PacksPerDay") || out.Schema.Has("Packs") {
		t.Error("rename failed")
	}
	if _, err := Rename(in, "Nope", "X"); err == nil {
		t.Error("renaming missing column must error")
	}
}

func TestJoin(t *testing.T) {
	left := sampleRows(t)
	fs := MustSchema(
		Column{Name: "ProcID", Type: KindInt},
		Column{Name: "Finding", Type: KindString},
	)
	right := &Rows{Schema: fs, Data: []Row{
		{Int(1), Str("polyp")},
		{Int(1), Str("fissure")},
		{Int(3), Str("ulcer")},
		{Null(), Str("orphan")},
	}}
	out, err := Join(left, right, "ID", "ProcID", "f")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("join produced %d rows, want 3", out.Len())
	}
	if !out.Schema.Has("Finding") || !out.Schema.Has("ProcID") {
		t.Errorf("join schema = %s", out.Schema.NameList())
	}
	// NULL keys never join.
	for _, r := range out.Data {
		if r[0].IsNull() {
			t.Error("NULL key joined")
		}
	}
}

func TestJoinCollidingNamesPrefixed(t *testing.T) {
	left := sampleRows(t)
	rs := MustSchema(Column{Name: "ID", Type: KindInt}, Column{Name: "Smoking", Type: KindString})
	right := &Rows{Schema: rs, Data: []Row{{Int(1), Str("other")}}}
	out, err := Join(left, right, "ID", "ID", "r")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Schema.Has("r_ID") || !out.Schema.Has("r_Smoking") {
		t.Errorf("prefixed schema = %s", out.Schema.NameList())
	}
}

func TestLeftJoin(t *testing.T) {
	left := sampleRows(t)
	fs := MustSchema(Column{Name: "ProcID", Type: KindInt}, Column{Name: "Finding", Type: KindString})
	right := &Rows{Schema: fs, Data: []Row{{Int(1), Str("polyp")}}}
	out, err := LeftJoin(left, right, "ID", "ProcID", "f")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Fatalf("left join rows = %d, want 5", out.Len())
	}
	nullCount := 0
	for _, r := range out.Data {
		if r[out.Schema.Index("Finding")].IsNull() {
			nullCount++
		}
	}
	if nullCount != 4 {
		t.Errorf("unmatched rows = %d, want 4", nullCount)
	}
}

func TestUnionAndDistinct(t *testing.T) {
	a := sampleRows(t)
	b := sampleRows(t)
	all, err := UnionAll(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 10 {
		t.Errorf("UnionAll len = %d", all.Len())
	}
	set, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 5 {
		t.Errorf("Union len = %d, want 5", set.Len())
	}
	other := &Rows{Schema: MustSchema(Column{Name: "Z", Type: KindInt}), Data: nil}
	if _, err := UnionAll(a, other); err == nil {
		t.Error("union of mismatched schemas must fail")
	}
	if _, err := UnionAll(); err == nil {
		t.Error("union of nothing must fail")
	}
}

func TestDistinctIdempotentProperty(t *testing.T) {
	f := func(vals []int8) bool {
		s := MustSchema(Column{Name: "V", Type: KindInt})
		data := make([]Row, len(vals))
		for i, v := range vals {
			data[i] = Row{Int(int64(v))}
		}
		in := &Rows{Schema: s, Data: data}
		once := Distinct(in)
		twice := Distinct(once)
		return once.EqualUnordered(twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortBy(t *testing.T) {
	in := sampleRows(t)
	out, err := SortBy(in, "Smoking", "ID")
	if err != nil {
		t.Fatal(err)
	}
	// NULL sorts first.
	if !out.Data[0][0].Equal(Int(5)) {
		t.Errorf("first row = %v, want NULL-smoking row", out.Data[0])
	}
	last := out.Data[out.Len()-1]
	if !last[1].Equal(Str("Previous")) {
		t.Errorf("last row = %v", last)
	}
	if _, err := SortBy(in, "Nope"); err == nil {
		t.Error("sorting missing column must error")
	}
}

func TestPivotUnpivotRoundTrip(t *testing.T) {
	in := sampleRows(t)
	eav, err := Pivot(in, []string{"ID"}, "Attribute", "Value")
	if err != nil {
		t.Fatal(err)
	}
	// 5 rows x 2 non-key columns.
	if eav.Len() != 10 {
		t.Fatalf("pivot rows = %d, want 10", eav.Len())
	}
	back, err := Unpivot(eav, []string{"ID"}, "Attribute", "Value", []Column{
		{Name: "Smoking", Type: KindString},
		{Name: "Packs", Type: KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The round trip loses NOT NULL flags but not data.
	if back.Len() != in.Len() {
		t.Fatalf("unpivot rows = %d, want %d", back.Len(), in.Len())
	}
	for i := range in.Data {
		if !back.Data[i].Equal(in.Data[i]) {
			t.Errorf("row %d: got %v, want %v", i, back.Data[i], in.Data[i])
		}
	}
}

func TestPivotUnpivotRoundTripProperty(t *testing.T) {
	// Property: for any table with an integer key and two attribute columns,
	// Unpivot(Pivot(T)) == T modulo nullability. This is the correctness core
	// of the Generic design pattern (Table 1).
	f := func(keys []uint8, svals []string) bool {
		s := MustSchema(
			Column{Name: "K", Type: KindInt, NotNull: true},
			Column{Name: "A", Type: KindString},
			Column{Name: "B", Type: KindInt},
		)
		seen := map[uint8]bool{}
		var data []Row
		for i, k := range keys {
			if seen[k] { // pivot keys must be unique
				continue
			}
			seen[k] = true
			sv := Value(Null())
			if i < len(svals) && svals[i] != "" && !strings.ContainsAny(svals[i], "\x00") {
				sv = Str(svals[i])
			}
			data = append(data, Row{Int(int64(k)), sv, Int(int64(i))})
		}
		in := &Rows{Schema: s, Data: data}
		eav, err := Pivot(in, []string{"K"}, "attr", "val")
		if err != nil {
			return false
		}
		back, err := Unpivot(eav, []string{"K"}, "attr", "val", []Column{
			{Name: "A", Type: KindString},
			{Name: "B", Type: KindInt},
		})
		if err != nil {
			return false
		}
		if back.Len() != in.Len() {
			return false
		}
		for i := range in.Data {
			if !back.Data[i].Equal(in.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestUnpivotIgnoresUnknownAttributes(t *testing.T) {
	s := MustSchema(
		Column{Name: "K", Type: KindInt},
		Column{Name: "attr", Type: KindString},
		Column{Name: "val", Type: KindString},
	)
	in := &Rows{Schema: s, Data: []Row{
		{Int(1), Str("Smoking"), Str("Current")},
		{Int(1), Str("Garbage"), Str("zzz")},
	}}
	out, err := Unpivot(in, []string{"K"}, "attr", "val", []Column{{Name: "Smoking", Type: KindString}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Data[0].Equal(Row{Int(1), Str("Current")}) {
		t.Errorf("unpivot = %v", out.Data)
	}
}

func TestGroupBy(t *testing.T) {
	in := sampleRows(t)
	out, err := GroupBy(in, []string{"Smoking"},
		Aggregate{Kind: AggCount, As: "N"},
		Aggregate{Kind: AggSum, Col: "Packs", As: "TotalPacks"},
		Aggregate{Kind: AggMax, Col: "Packs", As: "MaxPacks"},
		Aggregate{Kind: AggAvg, Col: "Packs", As: "AvgPacks"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 { // Current, None, Previous, NULL
		t.Fatalf("groups = %d, want 4", out.Len())
	}
	byKey := map[string]Row{}
	for _, r := range out.Data {
		byKey[r[0].Display()] = r
	}
	cur := byKey["Current"]
	if !cur[1].Equal(Int(2)) || !cur[2].Equal(Float(7)) || !cur[3].Equal(Float(5)) || !cur[4].Equal(Float(3.5)) {
		t.Errorf("Current group = %v", cur)
	}
	nullGroup := byKey["NULL"]
	if !nullGroup[1].Equal(Int(1)) {
		t.Errorf("NULL group = %v", nullGroup)
	}
	if !nullGroup[4].IsNull() {
		t.Error("AVG over all-NULL must be NULL")
	}
}

func TestGroupByNoKeysGlobalAggregate(t *testing.T) {
	in := sampleRows(t)
	out, err := GroupBy(in, nil, Aggregate{Kind: AggCount, As: "N"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Data[0][0].Equal(Int(5)) {
		t.Errorf("global count = %v", out.Data)
	}
}

func TestRowsEqualUnordered(t *testing.T) {
	a := sampleRows(t)
	b := sampleRows(t)
	// Reverse b.
	for i, j := 0, len(b.Data)-1; i < j; i, j = i+1, j-1 {
		b.Data[i], b.Data[j] = b.Data[j], b.Data[i]
	}
	if !a.EqualUnordered(b) {
		t.Error("permuted results must be equal unordered")
	}
	b.Data[0] = Row{Int(99), Str("x"), Float(1)}
	if a.EqualUnordered(b) {
		t.Error("modified results must differ")
	}
	short := &Rows{Schema: a.Schema, Data: a.Data[:3]}
	if a.EqualUnordered(short) {
		t.Error("different cardinality must differ")
	}
}

func TestRowsColumnAndFormat(t *testing.T) {
	in := sampleRows(t)
	vals, err := in.Column("Smoking")
	if err != nil || len(vals) != 5 {
		t.Fatalf("Column: %v, %v", vals, err)
	}
	if _, err := in.Column("Nope"); err == nil {
		t.Error("missing column must error")
	}
	txt := in.Format()
	if !strings.Contains(txt, "Smoking") || !strings.Contains(txt, "Current") {
		t.Errorf("Format output missing content:\n%s", txt)
	}
	lines := strings.Split(strings.TrimRight(txt, "\n"), "\n")
	if len(lines) != 7 { // header + separator + 5 rows
		t.Errorf("Format lines = %d, want 7", len(lines))
	}
}

func TestRowsCloneIndependence(t *testing.T) {
	in := sampleRows(t)
	c := in.Clone()
	c.Data[0][0] = Int(42)
	if in.Data[0][0].AsInt() != 1 {
		t.Error("Clone must deep-copy rows")
	}
}

// Cmp2Bool adapts a predicate to a boolean scalar expression in tests.
func Cmp2Bool(p Pred) Expr { return PredExpr{P: p} }
