package relstore

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Table is a named, mutable relation with optional hash indexes. Tables are
// safe for concurrent use.
//
// Indexes reference rows through stable row IDs rather than storage
// positions: ids maps a position to its row's ID and pos maps an ID back to
// the current position. Deleting rows therefore only edits the doomed rows'
// own buckets and renumbers the pos array — an integer fix-up — instead of
// rewriting every bucket of every index.
//
// Stored rows are immutable, and that is the API's ownership rule: once a
// Row is in a table, nothing writes into it. Reads hand out the stored rows
// themselves — Rows, Select, SelectPage and Lookup return them in a fresh
// slice the caller may reorder or truncate, and Scan passes them to its
// callback — so a caller must never write into a row it got from a table;
// one that needs a changed row clones it first. InsertAll takes ownership
// of its rows instead of copying them, so one row may sit in several
// tables at once (a passthrough ETL step's input and output, or a
// generation and its successor). Insert stores a clone of its argument,
// Update stores the row fn built on a clone, and Delete, Order and
// Truncate only move or drop row references within the table's own rows
// slice. Clone relies on the rule to share rows between tables. Under the
// rowcheck build tag every table verifies it (see rowCheck).
type Table struct {
	name   string
	schema *Schema

	mu      sync.RWMutex
	check   rowCheck // stored-row guard; empty outside the rowcheck build
	rows    []Row
	ids     []int                 // position -> stable row ID, parallel to rows
	pos     []int                 // row ID -> current position, -1 once deleted
	freeIDs []int                 // deleted IDs available for reuse
	indexes map[string]*hashIndex // column name -> index
	// ordCols are the column positions of the last Order, and ordLen is the
	// length of the storage prefix still in that order: Delete shortens it
	// by the rows it drops from it, Insert and InsertAll append past it,
	// and a successful Update and Truncate reset it.
	ordCols []int
	ordLen  int
}

type hashIndex struct {
	col     int
	buckets map[string][]int // value key -> stable row IDs
}

// NewTable creates an empty table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{name: name, schema: schema, indexes: make(map[string]*hashIndex)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert validates and appends a row. The row is cloned; the caller may
// reuse its slice.
func (t *Table) Insert(r Row) error {
	if err := t.schema.Validate(r); err != nil {
		return fmt.Errorf("insert into %s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked(r.Clone())
	return nil
}

// InsertAll validates every row, then appends them all under one lock; an
// invalid row fails the call before any row is stored. It takes ownership
// of the rows rather than cloning them: they may also sit in other tables,
// and the caller must not write into them afterwards (see Table). The
// slice itself stays the caller's.
func (t *Table) InsertAll(rows []Row) error {
	for _, r := range rows {
		if err := t.schema.Validate(r); err != nil {
			return fmt.Errorf("insert into %s: %w", t.name, err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = slices.Grow(t.rows, len(rows))
	t.ids = slices.Grow(t.ids, len(rows))
	t.pos = slices.Grow(t.pos, max(len(rows)-len(t.freeIDs), 0))
	for _, r := range rows {
		t.appendLocked(r)
	}
	return nil
}

// appendLocked stores a validated row the table now owns at the end of
// storage, under a free or fresh row ID, and files it in every index.
// Callers must hold t.mu for writing.
func (t *Table) appendLocked(r Row) {
	p := len(t.rows)
	t.rows = append(t.rows, r)
	var id int
	if n := len(t.freeIDs); n > 0 {
		id = t.freeIDs[n-1]
		t.freeIDs = t.freeIDs[:n-1]
		t.pos[id] = p
	} else {
		id = len(t.pos)
		t.pos = append(t.pos, p)
	}
	t.ids = append(t.ids, id)
	for _, idx := range t.indexes {
		k := r[idx.col].Key()
		idx.buckets[k] = append(idx.buckets[k], id)
	}
	t.check.record(t.name, r)
}

// InsertMap inserts a row given as a column-name→value map; absent nullable
// columns become NULL.
func (t *Table) InsertMap(m map[string]Value) error {
	r := make(Row, t.schema.Arity())
	for name, v := range m {
		i := t.schema.Index(name)
		if i < 0 {
			return fmt.Errorf("insert into %s: no column %q", t.name, name)
		}
		r[i] = v
	}
	return t.Insert(r)
}

// Update applies fn to every row matching pred, replacing the stored row
// with the returned one, and returns the number of rows updated. It is all
// or nothing, like Delete and InsertAll: every match is found, handed to fn
// in storage order and its replacement validated before any row is
// written, so a predicate error or an invalid replacement returns 0 and
// leaves the rows, the indexes and the ordered prefix as they were.
// Indexes are rebuilt if any update occurred.
func (t *Table) Update(pred Pred, fn func(Row) Row) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	test := bindPred(pred, t.schema)
	var at []int
	var repl []Row
	for i, r := range t.rows {
		ok, err := test(r)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		t.check.verify(t.name, r)
		nr := fn(r.Clone())
		if err := t.schema.Validate(nr); err != nil {
			return 0, fmt.Errorf("update %s: %w", t.name, err)
		}
		at = append(at, i)
		repl = append(repl, nr)
	}
	if len(at) == 0 {
		return 0, nil
	}
	for j, i := range at {
		t.check.forget(t.rows[i])
		t.check.record(t.name, repl[j])
		t.rows[i] = repl[j]
	}
	t.ordCols, t.ordLen = nil, 0
	t.rebuildIndexesLocked()
	return len(at), nil
}

// Delete removes rows matching pred and returns how many were removed.
// Candidate rows come from a hash-index probe when the predicate has an
// indexable equality or IN conjunct. Because indexes hold stable row IDs,
// deleting k rows costs O(k) bucket edits plus an integer renumbering of the
// positions after the first hole — the rest of the index is untouched, so
// small deletes from a large table stay cheap no matter how many rows or
// buckets the table has. Row positions are decided before any mutation, so a
// predicate error leaves the table untouched.
func (t *Table) Delete(pred Pred) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()

	var doomed []int
	if _, err := t.matchLocked(pred, func(p int) { doomed = append(doomed, p) }); err != nil {
		return 0, err
	}
	if len(doomed) == 0 {
		return 0, nil
	}

	// Remove each doomed row's ID from its bucket in every index and retire
	// the ID. Only the doomed rows' buckets are touched.
	for _, p := range doomed {
		id := t.ids[p]
		r := t.rows[p]
		t.check.verify(t.name, r)
		t.check.forget(r)
		for _, idx := range t.indexes {
			k := r[idx.col].Key()
			b := idx.buckets[k]
			for i, bid := range b {
				if bid == id {
					b[i] = b[len(b)-1]
					b = b[:len(b)-1]
					break
				}
			}
			if len(b) == 0 {
				delete(idx.buckets, k)
			} else {
				idx.buckets[k] = b
			}
		}
		t.pos[id] = -1
		t.freeIDs = append(t.freeIDs, id)
	}

	// Compact rows and ids in place — entries before the first hole stay
	// put, the rest slide left — and point the surviving IDs at their new
	// positions. Pure integer work, no allocation, no re-hashing. Dropping
	// rows keeps order, so the ordered prefix only loses its own doomed rows.
	t.ordLen -= sort.SearchInts(doomed, t.ordLen)
	w := doomed[0]
	di := 0
	for p := doomed[0]; p < len(t.rows); p++ {
		if di < len(doomed) && doomed[di] == p {
			di++
			continue
		}
		t.rows[w] = t.rows[p]
		t.ids[w] = t.ids[p]
		t.pos[t.ids[w]] = w
		w++
	}
	for p := w; p < len(t.rows); p++ {
		t.rows[p] = nil // release for GC
	}
	t.rows = t.rows[:w]
	t.ids = t.ids[:w]
	return len(doomed), nil
}

// Truncate removes all rows.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = nil
	t.ids = nil
	t.pos = nil
	t.freeIDs = nil
	t.ordCols, t.ordLen = nil, 0
	t.check = rowCheck{}
	t.rebuildIndexesLocked()
}

// CreateIndex builds a hash index on the named column. Creating an index
// that already exists is a no-op.
func (t *Table) CreateIndex(col string) error {
	i := t.schema.Index(col)
	if i < 0 {
		return fmt.Errorf("relstore: index on %s: no column %q", t.name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[col]; ok {
		return nil
	}
	idx := &hashIndex{col: i, buckets: make(map[string][]int)}
	for p, r := range t.rows {
		k := r[i].Key()
		idx.buckets[k] = append(idx.buckets[k], t.ids[p])
	}
	t.indexes[col] = idx
	return nil
}

// HasIndex reports whether a hash index exists on the column.
func (t *Table) HasIndex(col string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[col]
	return ok
}

func (t *Table) rebuildIndexesLocked() {
	for col, idx := range t.indexes {
		i := idx.col
		nb := make(map[string][]int)
		for p, r := range t.rows {
			k := r[i].Key()
			nb[k] = append(nb[k], t.ids[p])
		}
		t.indexes[col] = &hashIndex{col: i, buckets: nb}
	}
}

// bucketPositionsLocked maps a bucket's row IDs to their current storage
// positions, sorted ascending so index probes yield rows in the same order a
// full scan would. Callers must hold t.mu.
func (t *Table) bucketPositionsLocked(ids []int) []int {
	ps := make([]int, len(ids))
	for i, id := range ids {
		ps[i] = t.pos[id]
	}
	sort.Ints(ps)
	return ps
}

// Lookup returns the stored rows whose indexed column equals v, in a fresh
// slice; the rows must not be written into (see Table). It falls back to a
// scan when no index exists on the column.
func (t *Table) Lookup(col string, v Value) ([]Row, error) {
	ci := t.schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("relstore: lookup on %s: no column %q", t.name, col)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Row
	if idx, ok := t.indexes[col]; ok {
		positions := t.bucketPositionsLocked(idx.buckets[v.Key()])
		out = make([]Row, 0, len(positions))
		for _, p := range positions {
			// Re-check: colliding keys (integers past 2^53) share a bucket.
			if r := t.rows[p]; r[ci].Equal(v) {
				out = append(out, r)
			}
		}
	} else {
		for _, r := range t.rows {
			if r[ci].Equal(v) {
				out = append(out, r)
			}
		}
	}
	t.check.verifyAll(t.name, out)
	return out, nil
}

// Scan calls fn for every row. The row passed to fn must not be mutated or
// retained; clone it if needed. Scanning stops early if fn returns false.
func (t *Table) Scan(fn func(Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		t.check.verify(t.name, r)
		if !fn(r) {
			return
		}
	}
}

// Select returns the stored rows matching pred (nil keeps everything) in
// storage order, in a fresh slice; the rows must not be written into (see
// Table). It is SelectPage with an unbounded window.
func (t *Table) Select(pred Pred) (*Rows, error) {
	page, _, err := t.SelectPage(pred, 0, math.MaxInt)
	return page, err
}

// SelectPage counts every row matching pred (nil keeps everything) and
// returns only the stored rows at [offset, offset+limit) of the matches in
// storage order, in a fresh slice, so a page costs one predicate pass plus
// its own length however many rows match. The rows must not be written into
// (see Table). Candidates come from a hash-index probe when the predicate
// has an indexable equality or IN conjunct, and from a full scan otherwise;
// the predicate is bound to the schema once and tests each candidate
// (matchLocked) — serve's extract filters arrive here as Preds, not
// post-hoc row filters. Negative offsets and limits count as zero.
func (t *Table) SelectPage(pred Pred, offset, limit int) (page *Rows, total int, err error) {
	offset, limit = max(offset, 0), max(limit, 0)
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Row
	if pred == nil {
		total = len(t.rows)
		lo := min(offset, total)
		hi := lo + min(limit, total-lo)
		out = slices.Clone(t.rows[lo:hi])
	} else {
		probed, err := t.matchLocked(pred, func(p int) {
			if total >= offset && total-offset < limit {
				out = append(out, t.rows[p])
			}
			total++
		})
		if err != nil {
			return nil, 0, err
		}
		if !probed {
			mBatchRows.Add(int64(len(t.rows)))
		}
	}
	t.check.verifyAll(t.name, out)
	return &Rows{Schema: t.schema, Data: out}, total, nil
}

// matchLocked calls fn, in storage order, with the position of every row
// that satisfies pred (non-nil), and stops at the first predicate error.
// The rows tested are the candidates of a hash-index probe when pred has an
// indexable conjunct (probed reports it) and every row otherwise, each
// tested by pred bound to the schema once for the call. Callers must hold
// t.mu.
func (t *Table) matchLocked(pred Pred, fn func(p int)) (probed bool, err error) {
	test := bindPred(pred, t.schema)
	positions, probed := t.probeLocked(pred)
	if !probed {
		for p, r := range t.rows {
			ok, err := test(r)
			if err != nil {
				return false, err
			}
			if ok {
				fn(p)
			}
		}
		return false, nil
	}
	for _, p := range positions {
		ok, err := test(t.rows[p])
		if err != nil {
			return true, err
		}
		if ok {
			fn(p)
		}
	}
	return true, nil
}

// probeLocked returns the candidate storage positions, ascending, that a
// hash-index probe yields for pred: the rows whose indexed column shares a
// hash key with the literal of an equality conjunct or with one of the
// literals of an IN conjunct — whichever indexable conjunct yields the
// fewest candidates, equalities first on a tie. Keys can collide — integers
// past 2^53 share their float64 key — so candidates are a superset and
// callers evaluate the whole of pred on each. ok is false when no conjunct
// is indexable. Callers must hold t.mu.
func (t *Table) probeLocked(pred Pred) (positions []int, ok bool) {
	conjuncts := []Pred{pred}
	if and, isAnd := pred.(AndPred); isAnd {
		conjuncts = and.Ps
	}
	var best [][]int
	size := -1
	for _, in := range []bool{false, true} {
		for _, p := range conjuncts {
			idx, lits := t.indexedLiteralsLocked(p, in)
			if idx == nil {
				continue
			}
			var buckets [][]int
			n := 0
			seen := make(map[string]bool, len(lits))
			for _, v := range lits {
				if k := v.Key(); !seen[k] {
					seen[k] = true
					buckets = append(buckets, idx.buckets[k])
					n += len(idx.buckets[k])
				}
			}
			if size < 0 || n < size {
				best, size = buckets, n
			}
		}
	}
	if size < 0 {
		return nil, false
	}
	ids := make([]int, 0, size)
	for _, b := range best {
		ids = append(ids, b...)
	}
	return t.bucketPositionsLocked(ids), true
}

// indexedLiteralsLocked matches one conjunct against a probe shape — with
// in false "col = literal" (either side), with in true "col IN (literals)"
// — where col carries a hash index and no literal is NULL. It returns the
// index and the literals, or a nil index. Callers must hold t.mu.
func (t *Table) indexedLiteralsLocked(p Pred, in bool) (*hashIndex, []Value) {
	var e Expr
	var lits []Value
	switch q := p.(type) {
	case CmpPred:
		if in || q.Op != CmpEq {
			return nil, nil
		}
		if l, ok := q.R.(LitExpr); ok {
			e, lits = q.L, []Value{l.V}
		} else if l, ok := q.L.(LitExpr); ok {
			e, lits = q.R, []Value{l.V}
		}
	case InPred:
		if in {
			e, lits = q.E, q.List
		}
	}
	col, ok := e.(ColRef)
	if !ok {
		return nil, nil
	}
	for _, v := range lits {
		if v.IsNull() {
			return nil, nil
		}
	}
	return t.indexes[col.Name], lits
}

// Order stably reorders the stored rows ascending by the named columns — the
// order SortBy over a full scan would give — so every later scan, Select
// and SelectPage yields rows in that order. Only rows, ids and pos change:
// index buckets hold stable row IDs and are not re-hashed.
//
// The table remembers the columns of its last Order and how much of storage
// is still in that order: deletes keep the order, and inserts append past
// it. An Order by the same columns therefore takes that prefix as given;
// any other Order finds the longest ordered prefix by scanning, O(n)
// comparisons. Either way only the k rows after the prefix are sorted,
// stably, and merged into it in place — a binary search per row, ties
// going to the prefix, then one pass of row moves and position fix-ups —
// so a repeated Order costs O(k log n) comparisons and no O(n) allocation.
func (t *Table) Order(cols ...string) error {
	idx := make([]int, len(cols))
	for i, c := range cols {
		if idx[i] = t.schema.Index(c); idx[i] < 0 {
			return fmt.Errorf("relstore: order %s: no column %q", t.name, c)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.check.verifyAll(t.name, t.rows)
	cmpRows := func(a, b Row) int {
		for _, k := range idx {
			if c := a[k].Compare(b[k]); c != 0 {
				return c
			}
		}
		return 0
	}
	n := len(t.rows)
	p := 1
	if slices.Equal(idx, t.ordCols) {
		p = t.ordLen
	} else {
		for p < n && cmpRows(t.rows[p-1], t.rows[p]) <= 0 {
			p++
		}
	}
	t.ordCols, t.ordLen = idx, n
	if p >= n {
		return nil
	}
	// Sort the tail aside, then merge it into the prefix from the back:
	// each tail row goes after every prefix row it does not sort before,
	// and the prefix rows past it slide right once.
	tail := make([]int, n-p)
	for i := range tail {
		tail[i] = p + i
	}
	slices.SortStableFunc(tail, func(a, b int) int { return cmpRows(t.rows[a], t.rows[b]) })
	rows := make([]Row, len(tail))
	ids := make([]int, len(tail))
	for i, q := range tail {
		rows[i], ids[i] = t.rows[q], t.ids[q]
	}
	hi := p // prefix rows [0, hi) are not yet placed
	for j := len(rows) - 1; j >= 0; j-- {
		at := sort.Search(hi, func(i int) bool { return cmpRows(t.rows[i], rows[j]) > 0 })
		copy(t.rows[at+j+1:hi+j+1], t.rows[at:hi])
		copy(t.ids[at+j+1:hi+j+1], t.ids[at:hi])
		for q := at + j + 1; q <= hi+j; q++ {
			t.pos[t.ids[q]] = q
		}
		t.rows[at+j], t.ids[at+j] = rows[j], ids[j]
		t.pos[ids[j]] = at + j
		hi = at
	}
	return nil
}

// Clone returns an independent copy of the table under the same name. The
// copy gets its own rows slice holding the same Row values — stored rows
// are immutable (see Table), so sharing them is safe, and a later Insert,
// Update, Delete, Order or Truncate on either table never shows in the
// other. Row IDs, positions, index buckets and the ordered prefix Order
// remembers are carried over as they are, with no re-validation and no
// re-hashing.
func (t *Table) Clone() *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.check.verifyAll(t.name, t.rows)
	c := &Table{
		name:    t.name,
		schema:  t.schema,
		rows:    slices.Clone(t.rows),
		ids:     slices.Clone(t.ids),
		pos:     slices.Clone(t.pos),
		freeIDs: slices.Clone(t.freeIDs),
		indexes: make(map[string]*hashIndex, len(t.indexes)),
		ordCols: t.ordCols,
		ordLen:  t.ordLen,
		check:   t.check.clone(),
	}
	for col, idx := range t.indexes {
		buckets := make(map[string][]int, len(idx.buckets))
		for k, ids := range idx.buckets {
			buckets[k] = slices.Clone(ids)
		}
		c.indexes[col] = &hashIndex{col: idx.col, buckets: buckets}
	}
	return c
}

// ScanSince calls fn, in storage order, for every row whose value in col
// sorts strictly after the given value. It assumes rows were appended in
// non-decreasing col order — the contract of append-only change logs stamped
// with a monotone sequence — and binary-searches for the first qualifying
// row, so the cost is O(log n + rows yielded) rather than a full scan. The
// row passed to fn must not be mutated or retained; scanning stops early if
// fn returns false.
func (t *Table) ScanSince(col string, after Value, fn func(Row) bool) error {
	ci := t.schema.Index(col)
	if ci < 0 {
		return fmt.Errorf("relstore: scan-since on %s: no column %q", t.name, col)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	lo := sort.Search(len(t.rows), func(i int) bool {
		return t.rows[i][ci].Compare(after) > 0
	})
	for _, r := range t.rows[lo:] {
		t.check.verify(t.name, r)
		if !fn(r) {
			return nil
		}
	}
	return nil
}

// Rows returns every stored row in storage order: Select(nil), which cannot
// fail. The slice is fresh; the rows must not be written into (see Table).
func (t *Table) Rows() *Rows {
	rows, _ := t.Select(nil)
	return rows
}

// DB is a named collection of tables; it models one database instance
// (a contributor database, a temporary ETL database, or the warehouse).
type DB struct {
	name string

	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB creates an empty database.
func NewDB(name string) *DB {
	return &DB{name: name, tables: make(map[string]*Table)}
}

// Name returns the database name.
func (d *DB) Name() string { return d.name }

// CreateTable creates a new table, failing if the name is taken.
func (d *DB) CreateTable(name string, schema *Schema) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.tables[name]; exists {
		return nil, fmt.Errorf("relstore: table %q already exists in %s", name, d.name)
	}
	t := NewTable(name, schema)
	d.tables[name] = t
	return t, nil
}

// AddTable registers an existing table under its own name, failing if the
// name is taken.
func (d *DB) AddTable(t *Table) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.tables[t.name]; exists {
		return fmt.Errorf("relstore: table %q already exists in %s", t.name, d.name)
	}
	d.tables[t.name] = t
	return nil
}

// EnsureTable returns the existing table or creates it. If the table exists
// with a different schema, an error is returned.
func (d *DB) EnsureTable(name string, schema *Schema) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t, exists := d.tables[name]; exists {
		if !t.schema.Equal(schema) {
			return nil, fmt.Errorf("relstore: table %q exists with different schema", name)
		}
		return t, nil
	}
	t := NewTable(name, schema)
	d.tables[name] = t
	return t, nil
}

// Table returns the named table.
func (d *DB) Table(name string) (*Table, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q in %s", name, d.name)
	}
	return t, nil
}

// Has reports whether a table with the name exists.
func (d *DB) Has(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.tables[name]
	return ok
}

// Drop removes a table.
func (d *DB) Drop(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables[name]
	if !ok {
		return fmt.Errorf("relstore: no table %q in %s", name, d.name)
	}
	verifyTable(t)
	delete(d.tables, name)
	return nil
}

// TableNames returns the table names in sorted order.
func (d *DB) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
