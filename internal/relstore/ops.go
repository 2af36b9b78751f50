package relstore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Rows is an immutable, materialized query result: a schema plus data.
type Rows struct {
	Schema *Schema
	Data   []Row
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.Data) }

// Clone deep-copies the result.
func (r *Rows) Clone() *Rows {
	data := make([]Row, len(r.Data))
	for i, row := range r.Data {
		data[i] = row.Clone()
	}
	return &Rows{Schema: r.Schema, Data: data}
}

// Column returns all values of the named column in row order.
func (r *Rows) Column(name string) ([]Value, error) {
	i := r.Schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("relstore: no column %q", name)
	}
	out := make([]Value, len(r.Data))
	for j, row := range r.Data {
		out[j] = row[i]
	}
	return out, nil
}

// rowKeys computes fn over every row, in row order: the key pass behind
// multiset comparison, join, dedupe and grouping.
func rowKeys(data []Row, fn func(Row) string) []string {
	mBatchRows.Add(int64(len(data)))
	keys := make([]string, len(data))
	for i, r := range data {
		keys[i] = fn(r)
	}
	return keys
}

// EqualUnordered reports whether two results contain the same multiset of
// rows over identical schemas, ignoring order. Used by the Hypothesis-3
// equivalence tests (compiled ETL ≡ direct evaluation) and the operator
// equivalence harness. The comparison sorts each side's row-key strings and
// walks them pairwise — O(n log n) regardless of key collisions, where a
// map of counts would bucket colliding keys.
func (r *Rows) EqualUnordered(o *Rows) bool {
	if !r.Schema.Equal(o.Schema) || len(r.Data) != len(o.Data) {
		return false
	}
	ka := rowKeys(r.Data, Row.Key)
	kb := rowKeys(o.Data, Row.Key)
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// Format renders the result as an aligned text table for CLI output.
func (r *Rows) Format() string {
	names := r.Schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(r.Data))
	for j, row := range r.Data {
		cells[j] = make([]string, len(row))
		for i, v := range row {
			s := v.Display()
			cells[j][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(fields []string) {
		for i, f := range fields {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(f)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(f)))
		}
		sb.WriteByte('\n')
	}
	writeRow(names)
	seps := make([]string, len(names))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	writeRow(seps)
	for _, row := range cells {
		writeRow(row)
	}
	return sb.String()
}

// Select returns the rows satisfying pred (nil pred keeps everything), in
// input order. The predicate is bound to the schema once (bindPred) and
// tests each row with Pred.Eval's semantics, stopping at the first error.
func Select(in *Rows, pred Pred) (*Rows, error) {
	opSelect.Inc()
	out := make([]Row, 0, len(in.Data))
	if pred == nil {
		return &Rows{Schema: in.Schema, Data: append(out, in.Data...)}, nil
	}
	mBatchRows.Add(int64(len(in.Data)))
	test := bindPred(pred, in.Schema)
	for _, r := range in.Data {
		ok, err := test(r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return &Rows{Schema: in.Schema, Data: out}, nil
}

// Project keeps the named columns in the given order. When names are the
// input's own columns in order, it returns the input rows themselves
// (stored rows are immutable; see Table) in a new Rows sharing the slice.
func Project(in *Rows, names ...string) (*Rows, error) {
	opProject.Inc()
	if in.Schema.isNamed(names) {
		return &Rows{Schema: in.Schema, Data: in.Data}, nil
	}
	schema, err := in.Schema.Project(names...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = in.Schema.Index(n)
	}
	mBatchRows.Add(int64(len(in.Data)))
	out := make([]Row, len(in.Data))
	for j, row := range in.Data {
		nr := make(Row, len(idx))
		for i, k := range idx {
			nr[i] = row[k]
		}
		out[j] = nr
	}
	return &Rows{Schema: schema, Data: out}, nil
}

// Derivation names one computed output column.
type Derivation struct {
	Name string
	Type Kind
	Expr Expr
}

// DeriveSchema is the output schema Derive produces for the derivations.
func DeriveSchema(derivs []Derivation) (*Schema, error) {
	cols := make([]Column, len(derivs))
	for i, d := range derivs {
		cols[i] = Column{Name: d.Name, Type: d.Type}
	}
	return NewSchema(cols...)
}

// BindDerive binds the derivations to the input schema s once and returns
// the unit of work Derive applies per tuple, for callers with a poison-row
// path that bind once per relation and isolate a failing tuple: it derives
// one output row from one input row of s, exactly as evaluating each Expr
// with Eval would, each value coerced to its column type.
func BindDerive(derivs []Derivation, s *Schema) func(Row) (Row, error) {
	return bindDerive(derivs, s, "derive", 0)
}

// bindDerive binds derivs to s. The row it returns per input row holds the
// input's first keep cells, then each derivation's coerced value; the first
// failing derivation fails it as "<verb> <name>: …".
func bindDerive(derivs []Derivation, s *Schema, verb string, keep int) func(Row) (Row, error) {
	evals := make([]rowEval, len(derivs))
	for i, d := range derivs {
		evals[i] = bindExpr(d.Expr, s)
	}
	return func(row Row) (Row, error) {
		nr := append(make(Row, 0, keep+len(derivs)), row[:keep]...)
		for i, d := range derivs {
			v, err := evals[i](row)
			if err == nil && d.Type != KindNull {
				v, err = Coerce(v, d.Type)
			}
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", verb, d.Name, err)
			}
			nr = append(nr, v)
		}
		return nr, nil
	}
}

// Derive computes a new relation whose columns are the given derivations
// evaluated over each input row (a generalized projection; SELECT exprs),
// stopping at the first row that fails.
func Derive(in *Rows, derivs ...Derivation) (*Rows, error) {
	opDerive.Inc()
	schema, err := DeriveSchema(derivs)
	if err != nil {
		return nil, err
	}
	return deriveAll(in, schema, BindDerive(derivs, in.Schema))
}

// Extend appends computed columns to the input relation.
func Extend(in *Rows, derivs ...Derivation) (*Rows, error) {
	opExtend.Inc()
	extra := make([]Column, len(derivs))
	for i, d := range derivs {
		extra[i] = Column{Name: d.Name, Type: d.Type}
	}
	schema, err := in.Schema.Append(extra...)
	if err != nil {
		return nil, err
	}
	return deriveAll(in, schema, bindDerive(derivs, in.Schema, "extend", in.Schema.Arity()))
}

// deriveAll applies a bound derivation to every row of in, stopping at the
// first row that fails.
func deriveAll(in *Rows, schema *Schema, derive func(Row) (Row, error)) (*Rows, error) {
	mBatchRows.Add(int64(len(in.Data)))
	out := make([]Row, len(in.Data))
	for j, row := range in.Data {
		var err error
		if out[j], err = derive(row); err != nil {
			return nil, err
		}
	}
	return &Rows{Schema: schema, Data: out}, nil
}

// Rename renames a column.
func Rename(in *Rows, from, to string) (*Rows, error) {
	opRename.Inc()
	schema, err := in.Schema.Rename(from, to)
	if err != nil {
		return nil, err
	}
	return &Rows{Schema: schema, Data: in.Data}, nil
}

// joinSchema builds the output schema of a join, prefixing colliding right
// column names.
func joinSchema(left, right *Schema, rightPrefix string) (*Schema, error) {
	cols := make([]Column, 0, left.Arity()+right.Arity())
	cols = append(cols, left.Columns...)
	for _, c := range right.Columns {
		name := c.Name
		if left.Has(name) {
			name = rightPrefix + "_" + name
		}
		cols = append(cols, Column{Name: name, Type: c.Type, NotNull: c.NotNull})
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("relstore: join: %w", err)
	}
	return schema, nil
}

// Join performs a hash equi-join on leftCol = rightCol. Columns of the right
// relation that collide with left names are prefixed with the right prefix
// (prefix + "_"). The join is an inner join on Value.Equal, and NULL never
// joins: the build hashes the right side's keys (hkey), the probe walks the
// left side and re-checks every right row sharing its hkey with Equal, so
// the output is in left order, then right order within one left row.
func Join(left, right *Rows, leftCol, rightCol, rightPrefix string) (*Rows, error) {
	opJoin.Inc()
	li := left.Schema.Index(leftCol)
	if li < 0 {
		return nil, fmt.Errorf("relstore: join: no left column %q", leftCol)
	}
	ri := right.Schema.Index(rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("relstore: join: no right column %q", rightCol)
	}
	schema, err := joinSchema(left.Schema, right.Schema, rightPrefix)
	if err != nil {
		return nil, err
	}
	// head maps a key to 1 + its first right row (0: none), and next
	// chains each right row to the next one with its key (-1: none), in
	// right order.
	mBatchRows.Add(int64(len(right.Data) + len(left.Data)))
	head := make(map[hkey]int, len(right.Data))
	next := make([]int, len(right.Data))
	for j := len(right.Data) - 1; j >= 0; j-- {
		if v := right.Data[j][ri]; !v.IsNull() {
			k := v.hkey()
			next[j], head[k] = head[k]-1, j+1
		}
	}
	var out []Row
	for _, lrow := range left.Data {
		v := lrow[li]
		if v.IsNull() {
			continue
		}
		for j := head[v.hkey()] - 1; j >= 0; j = next[j] {
			if rrow := right.Data[j]; v.Equal(rrow[ri]) {
				nr := make(Row, 0, schema.Arity())
				nr = append(nr, lrow...)
				out = append(out, append(nr, rrow...))
			}
		}
	}
	return &Rows{Schema: schema, Data: out}, nil
}

// UnionAll concatenates relations with identical schemas (bag semantics).
// MultiClass "simply unions together the results of ETL workflows from
// different contributors" — this is that union.
func UnionAll(rs ...*Rows) (*Rows, error) {
	opUnionAll.Inc()
	if len(rs) == 0 {
		return nil, fmt.Errorf("relstore: union of nothing")
	}
	schema := rs[0].Schema
	var out []Row
	for _, r := range rs {
		if !r.Schema.Equal(schema) {
			return nil, fmt.Errorf("relstore: union schema mismatch: (%s) vs (%s)", schema.NameList(), r.Schema.NameList())
		}
		out = append(out, r.Data...)
	}
	return &Rows{Schema: schema, Data: out}, nil
}

// Union is UnionAll followed by Distinct (set semantics).
func Union(rs ...*Rows) (*Rows, error) {
	opUnion.Inc()
	all, err := UnionAll(rs...)
	if err != nil {
		return nil, err
	}
	return Distinct(all), nil
}

// Distinct removes duplicate rows, keeping first occurrences in order.
func Distinct(in *Rows) *Rows {
	opDistinct.Inc()
	keys := rowKeys(in.Data, Row.Key)
	seen := make(map[string]bool, len(in.Data))
	out := make([]Row, 0, len(in.Data))
	for i, row := range in.Data {
		if seen[keys[i]] {
			continue
		}
		seen[keys[i]] = true
		out = append(out, row)
	}
	return &Rows{Schema: in.Schema, Data: out}
}

// SortBy orders rows by the named columns ascending (stable), comparing the
// key cells of the rows directly (see rowOrder).
func SortBy(in *Rows, cols ...string) (*Rows, error) {
	opSortBy.Inc()
	idx := make([]int, len(cols))
	for i, c := range cols {
		k := in.Schema.Index(c)
		if k < 0 {
			return nil, fmt.Errorf("relstore: sort: no column %q", c)
		}
		idx[i] = k
	}
	out := append(make([]Row, 0, len(in.Data)), in.Data...)
	slices.SortStableFunc(out, rowOrder(idx))
	return &Rows{Schema: in.Schema, Data: out}, nil
}

// rowOrder is the row comparator of SortBy and Table.Order: the cells at
// cols in turn, by Compare, except that NaN, which Compare ties with every
// number, sorts after every number and ties with NaN.
func rowOrder(cols []int) func(a, b Row) int {
	return func(a, b Row) int {
		for _, k := range cols {
			c := a[k].Compare(b[k])
			if c == 0 && a[k].IsNumeric() && b[k].IsNumeric() {
				// Equal numbers, or NaN: cmp.Compare puts NaN first.
				c = -cmp.Compare(a[k].AsFloat(), b[k].AsFloat())
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
}

// Pivot converts a wide relation to Entity-Attribute-Value form: for each
// input row, one output row per value column, keyed by the key columns.
// (The Generic design pattern of Table 1 stores data this way.)
func Pivot(in *Rows, keyCols []string, attrCol, valCol string) (*Rows, error) {
	opPivot.Inc()
	keyIdx := make([]int, len(keyCols))
	cols := make([]Column, 0, len(keyCols)+2)
	for i, k := range keyCols {
		j := in.Schema.Index(k)
		if j < 0 {
			return nil, fmt.Errorf("relstore: pivot: no key column %q", k)
		}
		keyIdx[i] = j
		cols = append(cols, in.Schema.Columns[j])
	}
	cols = append(cols, Column{Name: attrCol, Type: KindString, NotNull: true})
	cols = append(cols, Column{Name: valCol, Type: KindString})
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	isKey := make(map[int]bool, len(keyIdx))
	for _, j := range keyIdx {
		isKey[j] = true
	}
	mBatchRows.Add(int64(len(in.Data)))
	var out []Row
	for _, row := range in.Data {
		for j, c := range in.Schema.Columns {
			if isKey[j] {
				continue
			}
			nr := make(Row, 0, schema.Arity())
			for _, k := range keyIdx {
				nr = append(nr, row[k])
			}
			nr = append(nr, Str(c.Name))
			if row[j].IsNull() {
				nr = append(nr, Null())
			} else {
				nr = append(nr, Str(row[j].Display()))
			}
			out = append(out, nr)
		}
	}
	return &Rows{Schema: schema, Data: out}, nil
}

// groupKeys extracts the concatenated key strings of keyIdx for every row.
func groupKeys(data []Row, keyIdx []int) []string {
	return rowKeys(data, func(row Row) string {
		var kb strings.Builder
		for _, k := range keyIdx {
			kb.WriteString(row[k].Key())
			kb.WriteByte(0x1f)
		}
		return kb.String()
	})
}

// tupleKey is the hkey of a row's key cells: the lone cell's own hkey, or
// for several cells one whose bits mix (FNV-1a) every cell's hkey, so rows
// whose key cells are pairwise Equal share it.
func tupleKey(row Row, keyIdx []int) hkey {
	if len(keyIdx) == 1 {
		return row[keyIdx[0]].hkey()
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, k := range keyIdx {
		c := row[k].hkey()
		h = (h ^ uint64(c.kind)) * prime
		h = (h ^ c.bits) * prime
		for i := 0; i < len(c.s); i++ {
			h = (h ^ uint64(c.s[i])) * prime
		}
		h = (h ^ uint64(len(c.s))) * prime
	}
	return hkey{bits: h}
}

// keysEqual reports whether the key prefix of an Unpivot output row is
// pairwise Equal to row's key cells.
func keysEqual(out, row Row, keyIdx []int) bool {
	for i, k := range keyIdx {
		if !out[i].Equal(row[k]) {
			return false
		}
	}
	return true
}

// Unpivot converts an Entity-Attribute-Value relation back to wide form.
// attrs names the output columns and their types. A row folds into the
// first earlier output row whose key cells are pairwise Equal to its own
// (hashed by tupleKey and re-checked), and starts a new one otherwise, so
// output rows follow the first appearance of each key tuple. Attributes
// absent for a key become NULL. The paper's Join pattern "executes an
// un-pivot operation, either in code or SQL if the operator exists in the
// DBMS"; relstore provides it natively.
func Unpivot(in *Rows, keyCols []string, attrCol, valCol string, attrs []Column) (*Rows, error) {
	opUnpivot.Inc()
	keyIdx := make([]int, len(keyCols))
	cols := make([]Column, 0, len(keyCols)+len(attrs))
	for i, k := range keyCols {
		j := in.Schema.Index(k)
		if j < 0 {
			return nil, fmt.Errorf("relstore: unpivot: no key column %q", k)
		}
		keyIdx[i] = j
		cols = append(cols, in.Schema.Columns[j])
	}
	ai := in.Schema.Index(attrCol)
	vi := in.Schema.Index(valCol)
	if ai < 0 || vi < 0 {
		return nil, fmt.Errorf("relstore: unpivot: missing attr/value columns %q/%q", attrCol, valCol)
	}
	attrPos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		// Attribute columns in unpivot output are always nullable: a key may
		// simply lack that attribute row.
		cols = append(cols, Column{Name: a.Name, Type: a.Type})
		attrPos[a.Name] = len(keyCols) + i
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	// first maps a key tuple's hkey to 1 + its first group (0: none), and
	// next chains each group to the next one sharing that hkey (-1: none),
	// in creation order.
	mBatchRows.Add(int64(len(in.Data)))
	first := make(map[hkey]int)
	var next []int
	var order []Row
	for _, row := range in.Data {
		k := tupleKey(row, keyIdx)
		pos, last := -1, -1
		for g := first[k] - 1; g >= 0; g = next[g] {
			if keysEqual(order[g], row, keyIdx) {
				pos = g
				break
			}
			last = g
		}
		if pos < 0 {
			nr := make(Row, schema.Arity())
			for i, c := range keyIdx {
				nr[i] = row[c]
			}
			pos = len(order)
			order = append(order, nr)
			next = append(next, -1)
			if last >= 0 {
				next[last] = pos
			} else {
				first[k] = pos + 1
			}
		}
		attr := row[ai]
		if attr.IsNull() {
			continue
		}
		p, ok := attrPos[attr.Display()]
		if !ok {
			continue // attribute not requested
		}
		v := row[vi]
		if !v.IsNull() {
			coerced, err := Coerce(v, schema.Columns[p].Type)
			if err != nil {
				return nil, fmt.Errorf("relstore: unpivot %s: %w", attr.Display(), err)
			}
			v = coerced
		}
		order[pos][p] = v
	}
	return &Rows{Schema: schema, Data: order}, nil
}

// AggKind enumerates aggregate functions for GroupBy.
type AggKind uint8

// Aggregates needed by the study funnels (counts, sums, averages).
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// Aggregate names one aggregated output column over a source column (ignored
// for AggCount).
type Aggregate struct {
	Kind AggKind
	Col  string
	As   string
}

// GroupBy groups rows by the key columns and computes aggregates per group.
// Output order follows first appearance of each group.
func GroupBy(in *Rows, keyCols []string, aggs ...Aggregate) (*Rows, error) {
	opGroupBy.Inc()
	keyIdx := make([]int, len(keyCols))
	cols := make([]Column, 0, len(keyCols)+len(aggs))
	for i, k := range keyCols {
		j := in.Schema.Index(k)
		if j < 0 {
			return nil, fmt.Errorf("relstore: group: no key column %q", k)
		}
		keyIdx[i] = j
		cols = append(cols, in.Schema.Columns[j])
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		t := KindFloat
		if a.Kind == AggCount {
			t = KindInt
			aggIdx[i] = -1
		} else {
			j := in.Schema.Index(a.Col)
			if j < 0 {
				return nil, fmt.Errorf("relstore: group: no aggregate column %q", a.Col)
			}
			aggIdx[i] = j
			if (a.Kind == AggMin || a.Kind == AggMax) && in.Schema.Columns[j].Type != KindFloat {
				t = in.Schema.Columns[j].Type
			}
		}
		name := a.As
		if name == "" {
			name = fmt.Sprintf("agg%d", i)
		}
		cols = append(cols, Column{Name: name, Type: t})
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	type acc struct {
		count int64
		sum   float64
		min   Value
		max   Value
		n     int64
	}
	rowKeys := groupKeys(in.Data, keyIdx)
	groups := make(map[string][]acc)
	keys := make(map[string]Row)
	var order []string
	for ri, row := range in.Data {
		key := rowKeys[ri]
		accs, ok := groups[key]
		if !ok {
			keyRow := make(Row, len(keyIdx))
			for i, k := range keyIdx {
				keyRow[i] = row[k]
			}
			accs = make([]acc, len(aggs))
			keys[key] = keyRow
			order = append(order, key)
		}
		for i, a := range aggs {
			accs[i].count++
			if a.Kind == AggCount {
				continue
			}
			v := row[aggIdx[i]]
			if v.IsNull() {
				continue
			}
			accs[i].n++
			if v.IsNumeric() {
				accs[i].sum += v.AsFloat()
			}
			if accs[i].min.IsNull() || v.Compare(accs[i].min) < 0 {
				accs[i].min = v
			}
			if accs[i].max.IsNull() || v.Compare(accs[i].max) > 0 {
				accs[i].max = v
			}
		}
		groups[key] = accs
	}
	out := make([]Row, 0, len(order))
	for _, key := range order {
		accs := groups[key]
		nr := make(Row, 0, schema.Arity())
		nr = append(nr, keys[key]...)
		for i, a := range aggs {
			switch a.Kind {
			case AggCount:
				nr = append(nr, Int(accs[i].count))
			case AggSum:
				nr = append(nr, Float(accs[i].sum))
			case AggMin:
				nr = append(nr, accs[i].min)
			case AggMax:
				nr = append(nr, accs[i].max)
			case AggAvg:
				if accs[i].n == 0 {
					nr = append(nr, Null())
				} else {
					nr = append(nr, Float(accs[i].sum/float64(accs[i].n)))
				}
			}
		}
		out = append(out, nr)
	}
	return &Rows{Schema: schema, Data: out}, nil
}
